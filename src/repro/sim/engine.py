"""Event loop, events and fiber processes.

The kernel keeps a binary heap of ``(time, sequence, event)`` entries.  An
:class:`Event` triggers at most once, either successfully (carrying a value)
or with failure (carrying an exception).  A :class:`Process` wraps a Python
generator: each ``yield`` hands the kernel an event to wait for, and the
kernel resumes the generator with the event's value (or throws the event's
exception into it).

This is deliberately close to Biscuit's fiber model: a fiber runs until it
explicitly yields (a timeout, an I/O completion, a queue slot), and there is
no preemption, so fibers on the same scheduling domain may share state without
locks.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from functools import partial
from heapq import heappop, heappush
from typing import (
    Any, Callable, ContextManager, Generator, Iterable, List, Optional,
)

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "any_of",
    "all_of",
    "backoff",
    "race_check_from_env",
]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; calling :meth:`succeed` or :meth:`fail` schedules
    them to *trigger* (run callbacks) at the current simulation time.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_exception", "_scheduled",
                 "defused", "abandoned")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # None once dispatched: "processed" is exactly "callbacks consumed".
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self.defused = False
        # Set when the sole waiter was interrupted away from this event;
        # a Resource's grant queue drops abandoned requests instead of
        # granting to a fiber that is no longer listening.
        self.abandoned = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to run its callbacks."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        return self._scheduled and self._exception is None

    @property
    def value(self) -> Any:
        if not self._scheduled:
            raise SimulationError("value of a pending event")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful with ``value``; callbacks run now."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        self._value = value
        self._scheduled = True
        sim = self.sim
        if sim.race is not None:
            sim.race.on_write(self, "state")
            sim.race.on_schedule(sim._now)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (sim._now, sequence, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed with ``exception``; callbacks run now."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._scheduled = True
        sim = self.sim
        if sim.race is not None:
            sim.race.on_write(self, "state")
            sim.race.on_schedule(sim._now)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (sim._now, sequence, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event has already been processed the callback runs
        immediately.
        """
        if self._callbacks is None:
            callback(self)
        else:
            if self.sim.race is not None:
                # Registration order decides callback run order: ordered by
                # construction (engine dispatch is serial), never a hazard,
                # but two tied events registering on the same target pin
                # the batch against perturbation.
                self.sim.race.on_ordered(self, "callbacks")
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        """Dispatch, as :meth:`Simulator.step` and the monitored drain do it;
        :meth:`Simulator.run` inlines exactly this."""
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self.defused and not callbacks:
            raise SimulationError(
                "unhandled failure of %r" % self
            ) from self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._scheduled else "pending"
        return "<%s %s at t=%d>" % (type(self).__name__, state, self.sim.now)


class Timeout(Event):
    """An event that triggers automatically ``delay`` ns after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay_ns: int, value: Any = None):
        if delay_ns < 0:
            raise ValueError("negative timeout delay: %r" % (delay_ns,))
        # Born triggered: the slots are written and the heap entry pushed
        # here, flat — a timeout is every other event the loop processes.
        self.sim = sim
        self._callbacks = []
        self._value = value
        self._exception = None
        self._scheduled = True
        self.defused = True  # a timeout cannot fail; nothing to defuse
        self.abandoned = False
        when = sim._now + delay_ns
        if sim.race is not None:
            sim.race.on_schedule(when)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (when, sequence, self))


class Process(Event):
    """A fiber: a generator driven by the events it yields.

    The process object is itself an event that triggers when the generator
    returns (success, value = return value) or raises (failure).
    """

    __slots__ = ("_generator", "_waiting_on", "_pending_interrupt", "name",
                 "ctx", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError("Process requires a generator, got %r" % (generator,))
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._pending_interrupt: Optional[Interrupt] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Causal trace context: child fibers inherit the spawner's active
        # context at creation time (see repro.instrument.events.EventBus).
        trace = sim.trace
        self.ctx = trace.ctx if trace is not None else None
        # The one callback this fiber ever registers: bound once here and
        # dropped when the fiber finishes (it is a cycle through ``self``).
        self._wake = wake = self._resume
        # Kick off at the current time.
        bootstrap = Event(sim)
        bootstrap.defused = True
        bootstrap._scheduled = True
        bootstrap._callbacks.append(wake)
        if sim.race is not None:
            sim.race.on_ordered(bootstrap, "callbacks")
            sim.race.on_write(bootstrap, "state")
            sim.race.on_schedule(sim._now)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (sim._now, sequence, bootstrap))

    @property
    def is_alive(self) -> bool:
        return not self._scheduled

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next wait point.

        A process that has not yet run (or is between resumes) is cancelled:
        the interrupt is delivered at its next scheduled resume.
        """
        if self.sim.race is not None:
            # Interrupting races with the process finishing: a tied entry
            # that completes this fiber flips the outcome between Interrupt
            # delivery and SimulationError, depending on pop order.
            self.sim.race.on_read(self, "state")
        if self._scheduled:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is None:
            self._pending_interrupt = Interrupt(cause)
            # The running fiber interrupted itself (one not yet started has
            # its bootstrap queued, which refuses in-line continuation
            # anyway): its next wait must go through the heap, where
            # _resume delivers the interrupt.
            self.sim._inline = False
            return
        # Resource request events are single-waiter: flag the
        # abandonment so pending grants are not burned on this fiber.  The
        # flag is set even when the target already *triggered* but has not
        # processed yet — a grant made in this very timestep would otherwise
        # be handed to a fiber that is no longer listening (the unit would
        # leak); Resource reclaims such grants at processing time.
        if self.sim.race is not None:
            # The PR 5 lost-interrupt bug lived exactly here: mutating a
            # target that already triggered in this same timestep races with
            # its dispatch (which consumes state and the callback list).
            self.sim.race.on_write(target, "state")
            self.sim.race.on_write(target, "callbacks")
        target.abandoned = True
        # An abandoned target that later *fails* has nobody left to receive
        # the exception; without defusing, the kernel would treat that as an
        # unhandled failure and crash the simulation.  Hedged reads interrupt
        # the losing leg mid-I/O routinely, so this is a normal outcome.
        target.defused = True
        if target._callbacks is not None:
            # Detach from the old wait: a target that already triggered but
            # has not run its callbacks yet would otherwise resume the fiber
            # normally in this very timestep, and the interrupt event below
            # would then be dropped as a stale wakeup — losing the interrupt.
            try:
                target._callbacks.remove(self._wake)
            except ValueError:
                pass
        self._waiting_on = None
        sim = self.sim
        interrupt_event = Event(sim)
        interrupt_event.defused = True
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._scheduled = True
        interrupt_event._callbacks = [self._wake]
        if sim.race is not None:
            sim.race.on_schedule(sim._now)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (sim._now, sequence, interrupt_event))

    def _resume(self, event: Event) -> None:
        if self._scheduled:
            return  # process already finished (e.g. raced with interrupt)
        waiting_on = self._waiting_on
        if waiting_on is not None and event is not waiting_on:
            return  # stale wakeup from an event we abandoned via interrupt
        self._waiting_on = None
        sim = self.sim
        trace = sim.trace
        if trace is not None:
            # Every emission between here and the next yield belongs to this
            # fiber's causal context (pure observation; no time advances).
            trace.ctx = self.ctx
            trace._current = self
        try:
            if self._pending_interrupt is not None:
                # Deferred cancellation (interrupt before the first resume).
                exc, self._pending_interrupt = self._pending_interrupt, None
                event.defused = True
                self.defused = True  # a cancelled fiber's failure is expected
                target = self._generator.throw(exc)
            elif event._exception is not None:
                event.defused = True
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self._value = stop.value
        except BaseException as exc:
            self._exception = exc
        else:
            if isinstance(target, Event):
                self._waiting_on = target
                callbacks = target._callbacks
                if callbacks is None:
                    target.add_callback(self._wake)  # processed: runs at once
                else:  # Event.add_callback, inlined
                    if sim.race is not None:
                        sim.race.on_ordered(target, "callbacks")
                    callbacks.append(self._wake)
                return
            self._exception = SimulationError(
                "process %s yielded %r; fibers must yield Event objects"
                % (self.name, target)
            )
        # The fiber is finished: trigger its completion event now.
        self._scheduled = True
        self._wake = None
        if sim.race is not None:
            sim.race.on_write(self, "state")
            sim.race.on_schedule(sim._now)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (sim._now, sequence, self))


class AllOf(Event):
    """Triggers when every child event has succeeded (fails fast on failure)."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._pending = 0
        failed: Optional[Event] = None
        for event in self._events:
            if event._callbacks is None:
                if event._exception is not None and failed is None:
                    failed = event
            else:
                self._pending += 1
        if failed is not None:
            failed.defused = True
            self.fail(failed._exception)
        elif self._pending == 0:
            self.succeed([e.value for e in self._events])
        # Children still pending after the composite settled keep a callback:
        # a child that *fails* once nobody is listening (the composite already
        # failed fast, or the waiter moved on) must be absorbed by
        # _child_done, not crash the run as an unhandled failure.
        for event in self._events:
            if event._callbacks is not None:
                event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self._scheduled:
            if event._exception is not None:
                # Late child of a settled composite — e.g. the hedged-race
                # loser failing after the winner answered.  Nobody is left
                # to receive the exception; absorb it.
                event.defused = True
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Triggers when the first child event triggers (success or failure)."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            # Nothing could ever trigger it: a fiber yielding it would hang.
            raise ValueError("any_of() needs at least one event")
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        finished: Optional[Event] = None
        for event in self._events:
            if event._callbacks is None:
                finished = event
                break
        if finished is not None:
            self._finish(finished)
        # Losers of an already-decided race still get a callback so a late
        # failure is defused instead of escaping as unhandled (see
        # AllOf._child_done).
        for event in self._events:
            if event._callbacks is not None:
                event.add_callback(self._child_done)

    def _finish(self, event: Event) -> None:
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
        else:
            self.succeed(event._value)

    def _child_done(self, event: Event) -> None:
        if self._scheduled:
            if event._exception is not None:
                # The hedged-race loser failing after the winner triggered:
                # absorb the failure, nobody is listening anymore.
                event.defused = True
            return
        self._finish(event)


def any_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """Event that triggers when any of ``events`` triggers."""
    return AnyOf(sim, events)


def all_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """Event that triggers when all of ``events`` have succeeded."""
    return AllOf(sim, events)


def backoff(sim: "Simulator", delay_ns: int, cat: str, name: str, track: str,
            **args: Any) -> Generator:
    """Fiber: sleep ``delay_ns`` before a retry; when tracing, the wait is
    one ``cat/name`` span on ``track``."""
    trace = sim.trace
    start_ns = sim.now
    yield sim.timeout(delay_ns)
    if trace is not None:
        trace.complete(cat, name, track, start_ns, **args)


#: What ``Simulator.scope`` / ``child_scope`` hand out with tracing off
#: (a ``nullcontext`` holds no state, so one serves every caller).
_NO_SCOPE: ContextManager[Any] = nullcontext()


def race_check_from_env() -> Optional[str]:
    """The REPRO_RACE_CHECK setting: None (off), "on", or "strict"."""
    raw = os.environ.get("REPRO_RACE_CHECK", "").strip().lower()
    if raw in ("", "0", "false", "off", "no"):
        return None
    if raw in ("strict", "raise"):
        return "strict"
    return "on"


class Simulator:
    """The event loop: an integer-nanosecond clock over a binary heap."""

    def __init__(self, race_check: Any = None):
        self._now = 0
        # ``(time, sequence, event)`` entries.  Tie-breaking is the monotonic
        # sequence number: events scheduled for the same instant run in
        # schedule order, never in heap/hash order — this is what makes the
        # event trace bit-reproducible.  Every trigger site (succeed/fail,
        # Timeout, Process start/finish/interrupt, Resource.request's in-line
        # grant) bumps ``_sequence`` and pushes its own entry.  The race
        # monitor's perturbation mode (repro.analysis.races) checks the
        # claim: it reverses pop order inside provably order-free batches
        # and requires a bit-identical trace.
        self._heap: List[Any] = []
        self._sequence = 0
        #: ``timeout(delay_ns, value=None)``: event that triggers ``delay_ns``
        #: nanoseconds from now.  Bound here, not a method, so that the most
        #: frequent call in the tree is one Python frame (Timeout.__init__).
        self.timeout: Callable[..., Timeout] = partial(Timeout, self)
        # Heap entries processed since construction.  Deterministic for a
        # given workload (it counts scheduled events, not wall time), so the
        # throughput bench and the fast-path tests can assert on it.
        self.events_processed = 0
        # In-line continuation (:meth:`advance`, ``Resource.take``): True
        # only while run()'s drain dispatches the last callback of an entry
        # that is not its sentinel; ``_deadline`` is that drain's ``until``.
        self._inline = False
        self._deadline: Optional[int] = None
        # Structured-event tracing hook (repro.instrument.events.EventBus).
        # None means tracing is off; instrumented layers guard every emission
        # with a single ``sim.trace is not None`` check, so the disabled path
        # costs one attribute load and never touches simulated time.
        self.trace: Optional[Any] = None
        # Interleaving sanitizer (repro.analysis.races.RaceMonitor).  Same
        # contract as ``trace``: None means off, and every instrumented
        # kernel mutation point guards with one ``sim.race is not None``
        # check.  ``race_check`` may be None (consult REPRO_RACE_CHECK),
        # False (off regardless), True ("on"), or "strict" (raise
        # OrderingHazardError on the first conflicting batch).
        self.race: Optional[Any] = None
        mode = race_check_from_env() if race_check is None else race_check
        if mode:
            # Imported lazily: repro.analysis pulls in the graph verifier,
            # which imports this module — fine at runtime (we are fully
            # initialized), a cycle at import time.
            from repro.analysis.races import RaceMonitor
            self.race = RaceMonitor(self, strict=(mode == "strict"))

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return self._now / 1_000_000_000

    @property
    def now_us(self) -> float:
        """Current simulation time in microseconds."""
        return self._now / 1_000

    def scope(self, qid: str, tenant: str = "") -> ContextManager[Any]:
        """The attached bus's causal scope for ``qid`` (see
        :meth:`repro.instrument.events.EventBus.scope`); untraced, one
        shared no-op, so callers write the ``with`` once."""
        trace = self.trace
        return trace.scope(qid, tenant) if trace is not None else _NO_SCOPE

    def child_scope(self, label: str) -> ContextManager[Any]:
        """Likewise for a causal child of the active context."""
        trace = self.trace
        return trace.child_scope(label) if trace is not None else _NO_SCOPE

    def event(self) -> Event:
        """Create a pending event to be succeeded/failed manually."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a fiber running ``generator``; returns its completion event."""
        return Process(self, generator, name=name)

    def step(self) -> None:
        """Process the single next event."""
        when, __, event = heappop(self._heap)
        self._now = when
        self.events_processed += 1
        event._run_callbacks()

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def advance(self, delay_ns: int) -> bool:
        """Move the clock ``delay_ns`` forward at once, when that is exactly
        what ``yield sim.timeout(delay_ns)`` would do; else return False.

        The idiom is ``if not sim.advance(ns): yield sim.timeout(ns)``.  It
        advances only while :meth:`run` dispatches the last callback of an
        entry that is not its sentinel (never under :meth:`step` or the
        race monitor's drain), no queued entry is due at or before
        ``now + delay_ns`` and that time is within ``run(until=ns)``'s
        deadline.  The timeout's entry would then be the very next one
        popped, resuming only the running fiber, so skipping it moves no
        timestamp and no tie: it draws no sequence number, and every later
        number shifts down alike.  ``Resource.take`` is the same rule for
        a grant.
        """
        if delay_ns < 0:
            raise ValueError("negative advance: %r" % (delay_ns,))
        if not self._inline:
            return False
        when = self._now + delay_ns
        heap = self._heap
        if heap and heap[0][0] <= when:
            return False
        deadline = self._deadline
        if deadline is not None and when > deadline:
            return False
        self._now = when
        return True

    def _run_monitored(self, heap: List[Any], sentinel: Optional[Event],
                       deadline: Optional[int]) -> None:
        """The drain of :meth:`run` with explicit race-monitor batch boundaries.

        Pops all entries of a timestamp together (events scheduled *during*
        the batch carry larger sequence numbers than everything popped, so
        running the popped entries in pop order is exactly one-at-a-time
        :meth:`step`), tells the monitor where each batch starts and which
        entry is dispatching, and — in perturbation mode — reverses the pop
        order of batches the monitor's recorded plan marked as provably
        order-free.  A batch the sentinel truncates is pinned: its
        dispatched set depends on pop order, so reversing it could change
        *which* events ran, not just their order.  An exception (or a
        truncation) pushes the unprocessed remainder back, leaving the heap
        as repeated ``step()`` calls would.
        """
        race = self.race
        while heap:
            if sentinel is not None and sentinel._callbacks is None:
                return
            when = heap[0][0]
            if deadline is not None and when > deadline:
                return
            self._now = when
            batch: List[Any] = []
            while heap and heap[0][0] == when:
                batch.append(heappop(heap))
            reverse = len(batch) > 1 and race.should_reverse()
            if reverse:
                batch.reverse()
            race.begin_batch(when, len(batch), reverse)
            index = 0
            truncated = False
            try:
                while index < len(batch):
                    if sentinel is not None and sentinel._callbacks is None:
                        truncated = True
                        break
                    event = batch[index][2]
                    index += 1
                    self.events_processed += 1
                    race.begin_entry(event)
                    event._run_callbacks()
            except BaseException:
                for entry in batch[index:]:
                    heappush(heap, entry)
                # No end_batch: the partial batch's analysis would be
                # misleading, and a strict-mode raise would mask the error.
                raise
            fired = sentinel is not None and sentinel._callbacks is None
            race.end_batch(pinned=fired)
            if truncated:
                for entry in batch[index:]:
                    heappush(heap, entry)
            if fired:
                return

    def run(self, until: Any = None) -> Any:
        """Run the event loop.

        ``until`` may be ``None`` (run to exhaustion), an integer time in
        nanoseconds (run until the clock would pass it), or an
        :class:`Event` (run until it is processed; returns its value).
        """
        sentinel: Optional[Event] = None
        deadline: Optional[int] = None
        if isinstance(until, Event):
            sentinel = until
            saved_defused = sentinel.defused
            sentinel.defused = True  # run() surfaces the failure itself
        elif until is not None:
            deadline = int(until)
            if deadline < self._now:
                raise ValueError("cannot run until the past")
        heap = self._heap
        if self.race is not None:
            self._run_monitored(heap, sentinel, deadline)
        else:
            # The drain: one entry at a time, exactly repeated step() with
            # Event._run_callbacks inlined — an exception mid-timestamp
            # leaves the rest of the timestamp on the heap.  An entry's last
            # callback runs with ``_inline`` set (unless the entry is the
            # sentinel, after which the loop stops): nothing else runs
            # before the next pop, so the fiber it resumes may continue in
            # line (advance, Resource.take) while nothing else is due.
            self._deadline = deadline
            pop = heappop
            try:
                while heap:
                    if sentinel is not None and sentinel._callbacks is None:
                        break
                    if deadline is not None and heap[0][0] > deadline:
                        break
                    when, __, event = pop(heap)
                    self._now = when
                    self.events_processed += 1
                    callbacks, event._callbacks = event._callbacks, None
                    if callbacks:
                        last = callbacks.pop()
                        if callbacks:
                            self._inline = False
                            for callback in callbacks:
                                callback(event)
                        self._inline = event is not sentinel
                        last(event)
                    elif (event._exception is not None
                            and not event.defused):
                        raise SimulationError(
                            "unhandled failure of %r" % event
                        ) from event._exception
            finally:
                self._inline = False
        if sentinel is not None:
            if sentinel._callbacks is not None:
                # The flag only exists to mark run() as the failure's
                # consumer; when the sentinel never fired, put it back so a
                # later failure still surfaces as unhandled.
                sentinel.defused = saved_defused
                raise SimulationError(
                    "run() ran out of events before %r triggered" % sentinel
                )
            return sentinel.value  # raises the original exception on failure
        if deadline is not None:
            self._now = deadline
        return None
