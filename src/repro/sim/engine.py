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

import heapq
import os
from typing import Any, Callable, Generator, Iterable, List, Optional

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

    __slots__ = ("sim", "_callbacks", "_value", "_exception", "_scheduled", "_processed", "defused",
                 "abandoned")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self._processed = False
        self.defused = False
        # Set when the sole waiter was interrupted away from this event;
        # grant queues (Resource, Store) drop abandoned requests instead of
        # granting to a fiber that is no longer listening.
        self.abandoned = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to run its callbacks."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

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
        if self.sim.race is not None:
            self.sim.race.on_write(self, "state")
        self.sim._schedule(self, 0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed with ``exception``; callbacks run now."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._scheduled = True
        if self.sim.race is not None:
            self.sim.race.on_write(self, "state")
        self.sim._schedule(self, 0)
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
        callbacks, self._callbacks = self._callbacks, None
        self._processed = True
        for callback in callbacks or ():
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
        super().__init__(sim)
        self._value = value
        self._scheduled = True
        self.defused = True  # a timeout cannot fail; nothing to defuse
        sim._schedule(self, delay_ns)


class Process(Event):
    """A fiber: a generator driven by the events it yields.

    The process object is itself an event that triggers when the generator
    returns (success, value = return value) or raises (failure).
    """

    __slots__ = ("_generator", "_waiting_on", "_pending_interrupt", "name",
                 "ctx")

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
        # Kick off at the current time.
        bootstrap = Event(sim)
        bootstrap.defused = True
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

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
            return
        # Request events (Resource/Store) are single-waiter: flag the
        # abandonment so pending grants are not burned on this fiber.  The
        # flag is set even when the target already *triggered* but has not
        # processed yet — a grant made in this very timestep would otherwise
        # be handed to a fiber that is no longer listening (the units would
        # leak); Resource/Store reclaim such grants at processing time.
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
                target._callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        interrupt_event = Event(self.sim)
        interrupt_event.defused = True
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._scheduled = True
        interrupt_event._callbacks = [self._resume]
        self.sim._schedule(interrupt_event, 0)

    def _resume(self, event: Event) -> None:
        if self._scheduled:
            return  # process already finished (e.g. raced with interrupt)
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # stale wakeup from an event we abandoned via interrupt
        self._waiting_on = None
        trace = self.sim.trace
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
            self._scheduled = True
            if self.sim.race is not None:
                self.sim.race.on_write(self, "state")
            self.sim._schedule(self, 0)
            return
        except BaseException as exc:
            self._exception = exc
            self._scheduled = True
            if self.sim.race is not None:
                self.sim.race.on_write(self, "state")
            self.sim._schedule(self, 0)
            return
        if not isinstance(target, Event):
            error = SimulationError(
                "process %s yielded %r; fibers must yield Event objects"
                % (self.name, target)
            )
            self._exception = error
            self._scheduled = True
            if self.sim.race is not None:
                self.sim.race.on_write(self, "state")
            self.sim._schedule(self, 0)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


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
            if event.processed:
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
            if not event.processed:
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
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        finished: Optional[Event] = None
        for event in self._events:
            if event.processed:
                finished = event
                break
        if finished is not None:
            self._finish(finished)
        # Losers of an already-decided race still get a callback so a late
        # failure is defused instead of escaping as unhandled (see
        # AllOf._child_done).
        for event in self._events:
            if not event.processed:
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


class Simulator:
    """The event loop: an integer-nanosecond clock over a binary heap."""

    def __init__(self, race_check: Any = None):
        self._now = 0
        self._heap: List[Any] = []
        self._sequence = 0
        # Heap entries processed since construction.  Deterministic for a
        # given workload (it counts scheduled events, not wall time), so the
        # throughput bench and the fast-path tests can assert on it.
        self.events_processed = 0
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
        mode = race_check
        if mode is None:
            raw = os.environ.get("REPRO_RACE_CHECK", "").strip().lower()
            if raw in ("", "0", "false", "off", "no"):
                mode = None
            elif raw in ("strict", "raise"):
                mode = "strict"
            else:
                mode = "on"
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

    def _schedule(self, event: Event, delay_ns: int) -> None:
        # Tie-breaking is the monotonic sequence number: events scheduled for
        # the same instant run in schedule order, never in heap/hash order —
        # this is what makes the event trace bit-reproducible.  The race
        # monitor's perturbation mode (repro.analysis.races) checks that
        # claim: it reverses pop order inside provably order-free batches
        # and requires a bit-identical trace.
        self._sequence += 1
        if self.race is not None:
            self.race.on_schedule(self._now + delay_ns)
        heapq.heappush(self._heap, (self._now + delay_ns, self._sequence, event))

    def event(self) -> Event:
        """Create a pending event to be succeeded/failed manually."""
        return Event(self)

    def timeout(self, delay_ns: int, value: Any = None) -> Timeout:
        """Event that triggers ``delay_ns`` nanoseconds from now."""
        return Timeout(self, delay_ns, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a fiber running ``generator``; returns its completion event."""
        return Process(self, generator, name=name)

    def step(self) -> None:
        """Process the single next event."""
        when, __, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        event._run_callbacks()

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def _run_batched(self, heap: List[Any]) -> None:
        """Drain the heap, popping all entries of each timestamp together.

        Dispatching a whole timestamp as one batch amortizes the heap
        traffic: events scheduled *during* the batch carry larger sequence
        numbers than everything popped, so running the popped entries in
        their (already sorted) pop order and only then returning to the heap
        preserves the exact sequence-order semantics of one-at-a-time
        :meth:`step`.  An exception pushes the unprocessed remainder back so
        the heap is left exactly as repeated ``step()`` calls would leave it.
        """
        pop = heapq.heappop
        batch: List[Any] = []
        while heap:
            entry = pop(heap)
            when = entry[0]
            self._now = when
            batch.append(entry)
            while heap and heap[0][0] == when:
                batch.append(pop(heap))
            index = 0
            try:
                while index < len(batch):
                    event = batch[index][2]
                    index += 1
                    self.events_processed += 1
                    event._run_callbacks()
            except BaseException:
                for entry in batch[index:]:
                    heapq.heappush(heap, entry)
                raise
            batch.clear()

    def _run_monitored(self, heap: List[Any],
                       sentinel: Optional[Event] = None,
                       deadline: Optional[int] = None) -> None:
        """Batched drain with explicit race-monitor batch boundaries.

        Mirrors :meth:`_run_batched` (and the sentinel/deadline loops of
        :meth:`run`), but tells the monitor where each same-timestamp batch
        starts and which entry is dispatching, and — in perturbation mode —
        reverses the pop order of batches the monitor's recorded plan marked
        as provably order-free.  A batch the sentinel truncates is pinned:
        its dispatched set depends on pop order, so reversing it could
        change *which* events ran, not just their order.
        """
        race = self.race
        pop = heapq.heappop
        while heap:
            if sentinel is not None and sentinel._processed:
                return
            when = heap[0][0]
            if deadline is not None and when > deadline:
                return
            self._now = when
            batch: List[Any] = []
            while heap and heap[0][0] == when:
                batch.append(pop(heap))
            reverse = len(batch) > 1 and race.should_reverse()
            if reverse:
                batch.reverse()
            race.begin_batch(when, len(batch), reverse)
            index = 0
            truncated = False
            try:
                while index < len(batch):
                    if sentinel is not None and sentinel._processed:
                        truncated = True
                        break
                    event = batch[index][2]
                    index += 1
                    self.events_processed += 1
                    race.begin_entry(event)
                    event._run_callbacks()
            except BaseException:
                for entry in batch[index:]:
                    heapq.heappush(heap, entry)
                # No end_batch: the partial batch's analysis would be
                # misleading, and a strict-mode raise would mask the error.
                raise
            fired = sentinel is not None and sentinel._processed
            race.end_batch(pinned=fired)
            if truncated:
                for entry in batch[index:]:
                    heapq.heappush(heap, entry)
            if fired:
                return

    def run(self, until: Any = None) -> Any:
        """Run the event loop.

        ``until`` may be ``None`` (run to exhaustion), an integer time in
        nanoseconds (run until the clock would pass it), or an
        :class:`Event` (run until it is processed; returns its value).
        """
        if self.race is not None:
            return self._run_with_monitor(until)
        if until is None:
            self._run_batched(self._heap)
            return None
        if isinstance(until, Event):
            sentinel = until
            saved_defused = sentinel.defused
            sentinel.defused = True  # run() surfaces the failure itself
            heap = self._heap
            pop = heapq.heappop
            while heap and not sentinel._processed:
                when, __, event = pop(heap)
                self._now = when
                self.events_processed += 1
                event._run_callbacks()
            if not sentinel._processed:
                # The flag only exists to mark run() as the failure's
                # consumer; when the sentinel never fired, put it back so a
                # later failure still surfaces as unhandled.
                sentinel.defused = saved_defused
                raise SimulationError(
                    "run() ran out of events before %r triggered" % sentinel
                )
            return sentinel.value  # raises the original exception on failure
        deadline = int(until)
        if deadline < self._now:
            raise ValueError("cannot run until the past")
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= deadline:
            when, __, event = pop(heap)
            self._now = when
            self.events_processed += 1
            event._run_callbacks()
        self._now = deadline
        return None

    def _run_with_monitor(self, until: Any) -> Any:
        """The three :meth:`run` modes, routed through the monitored drain."""
        if until is None:
            self._run_monitored(self._heap)
            return None
        if isinstance(until, Event):
            sentinel = until
            saved_defused = sentinel.defused
            sentinel.defused = True  # run() surfaces the failure itself
            self._run_monitored(self._heap, sentinel=sentinel)
            if not sentinel._processed:
                sentinel.defused = saved_defused
                raise SimulationError(
                    "run() ran out of events before %r triggered" % sentinel
                )
            return sentinel.value  # raises the original exception on failure
        deadline = int(until)
        if deadline < self._now:
            raise ValueError("cannot run until the past")
        self._run_monitored(self._heap, deadline=deadline)
        self._now = deadline
        return None
