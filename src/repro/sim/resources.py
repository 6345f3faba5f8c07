"""Counting resources and stores for the simulation kernel.

:class:`Resource` models anything with finite concurrent capacity: a flash
channel, a DMA engine, an NVMe submission queue slot.  :class:`Store` is an
unbounded produce/consume buffer used where backpressure is not modeled.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Generator, Tuple

from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counting resource with FIFO grant order.

    ``request(n)`` returns an event that triggers once ``n`` units are held;
    ``release(n)`` returns them.  Use :meth:`acquire` inside a fiber for the
    common request/hold pattern.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: Queued requests: (event, units, reclaim callback).
        self._waiters: Deque[Tuple[Event, int, Any]] = deque()
        # Utilization accounting: busy integral in unit·ns.
        self._busy_area = 0
        self._last_change = sim.now
        # The reclaim callback of every 1-unit grant, bound once.
        self._reclaim_unit = self._reclaim

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self, units: int = 1) -> Event:
        if units < 1 or units > self.capacity:
            raise ValueError(
                "cannot request %d units of %d-capacity resource" % (units, self.capacity)
            )
        sim = self.sim
        race = sim.race
        if race is not None:
            # FIFO traffic: grant order among tied requesters is pinned by
            # the engine's sequence numbers by design — ordered, not a
            # hazard, but it pins the batch against perturbation.
            race.on_ordered(self, "queue")
        event = Event(sim)
        # The waiter can still be interrupted between the grant and the
        # event processing (same timestep); the reclaim callback checks the
        # abandoned flag at processing time and returns the units — without
        # it an interrupted hedged/coalesced read would hold the grant
        # forever (a doubly-granted leak).
        reclaim = (self._reclaim_unit if units == 1
                   else lambda ev, n=units: self._reclaim(ev, n))
        in_use = self._in_use
        if self._waiters or in_use + units > self.capacity:
            self._waiters.append((event, units, reclaim))
            self._grant()
            return event
        # Uncontended (nine requests in ten): grant in line — _grant's
        # accounting, add_callback and Event.succeed, same heap entry.
        now = sim._now
        self._busy_area += in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use + units
        event._callbacks.append(reclaim)
        event._scheduled = True
        if race is not None:
            race.on_ordered(event, "callbacks")
            race.on_write(event, "state")
            race.on_schedule(now)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (now, sequence, event))
        return event

    def take(self, units: int = 1) -> bool:
        """Hold ``units`` at once, when that is exactly what ``yield
        request(units)`` would do; else return False.

        The idiom is ``if not res.take(): yield res.request()``.  It grants
        only when :meth:`request` would grant uncontended, no queued entry
        is due now, and the simulator allows in-line continuation (see
        :meth:`Simulator.advance`): the grant's entry would be the very
        next one popped and would resume only the running fiber.  The busy
        accounting is :meth:`request`'s.
        """
        if units < 1 or units > self.capacity:
            raise ValueError(
                "cannot take %d units of %d-capacity resource" % (units, self.capacity)
            )
        sim = self.sim
        if not sim._inline:
            return False
        in_use = self._in_use
        if self._waiters or in_use + units > self.capacity:
            return False
        heap = sim._heap
        now = sim._now
        if heap and heap[0][0] <= now:
            return False
        self._busy_area += in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use + units
        return True

    def release(self, units: int = 1) -> None:
        in_use = self._in_use
        if units < 1 or units > in_use:
            raise ValueError("release of %d units but only %d in use" % (units, in_use))
        sim = self.sim
        if sim.race is not None:
            sim.race.on_ordered(self, "queue")
        now = sim._now
        self._busy_area += in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use - units
        if self._waiters:
            self._grant()

    def acquire(self, units: int = 1) -> Generator:
        """Fiber helper: ``yield from resource.acquire()`` blocks until held."""
        yield self.request(units)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def _grant(self) -> None:
        """Serve the queue head-first: what a release (or a request that
        found waiters) does; an uncontended request never gets here."""
        while self._waiters:
            event, units, reclaim = self._waiters[0]
            if event.abandoned:  # requester was interrupted while queued
                self._waiters.popleft()
                continue
            if self._in_use + units > self.capacity:
                break
            self._waiters.popleft()
            self._account()
            self._in_use += units
            event.add_callback(reclaim)
            event.succeed()

    def _reclaim(self, event: Event, units: int = 1) -> None:
        if event.abandoned:
            self.release(units)

    def utilization(self) -> float:
        """Mean fraction of capacity held since t=0."""
        self._account()
        elapsed = self.sim.now
        if elapsed == 0:
            return 0.0
        return self._busy_area / (self.capacity * elapsed)

    def busy_area(self) -> int:
        """Cumulative unit·ns of held capacity (for windowed accounting)."""
        self._account()
        return self._busy_area

    def backfill_busy(self, area: int) -> None:
        """Credit ``area`` unit·ns of held capacity retroactively.

        The fused NAND fast path (:mod:`repro.sim.fastpath`) holds no real
        units while a plan is in flight; when the plan settles it deposits
        the exact busy integral its ops would have accrued, keeping
        :meth:`utilization` identical to the per-event path at settle points.
        """
        self._busy_area += area


class Store:
    """Unbounded FIFO buffer: immediate puts, event-returning gets."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self.sim.race is not None:
            # FIFO hand-off: ordered by design (see Resource.request).
            self.sim.race.on_ordered(self, "items")
        while self._getters:
            getter = self._getters.popleft()
            if not getter.abandoned:  # skip getters interrupted while queued
                # As with Resource grants, the getter may be interrupted
                # after this hand-off but before the event processes; the
                # item is then re-put instead of vanishing with the fiber.
                getter.add_callback(self._reclaim)
                getter.succeed(item)
                return
        self._items.append(item)

    def _reclaim(self, event: Event) -> None:
        if event.abandoned:
            self.put(event._value)

    def get(self) -> Event:
        if self.sim.race is not None:
            self.sim.race.on_ordered(self, "items")
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
