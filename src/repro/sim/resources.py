"""Counting resources for the simulation kernel.

:class:`Resource` models anything with finite concurrent capacity: a flash
channel, a DMA engine, an NVMe submission queue slot.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque

from repro.sim.engine import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """A counting resource with FIFO grant order.

    ``request()`` returns an event that triggers once one unit is held;
    ``release()`` returns it.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: Queued request events, granted head-first.  A unit is free only
        #: while none is queued: a release hands it straight to the head.
        self._waiters: Deque[Event] = deque()
        # Utilization accounting: busy integral in unit·ns.
        self._busy_area = 0
        self._last_change = sim.now
        # The reclaim callback of every grant, bound once.
        self._reclaim_unit = self._reclaim

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self) -> Event:
        sim = self.sim
        race = sim.race
        if race is not None:
            # FIFO traffic: grant order among tied requesters is pinned by
            # the engine's sequence numbers by design — ordered, not a
            # hazard, but it pins the batch against perturbation.
            race.on_ordered(self, "queue")
        event = Event(sim)
        in_use = self._in_use
        if in_use == self.capacity:
            self._waiters.append(event)
            return event
        # Uncontended (nine requests in ten): grant in line — the busy
        # accounting, add_callback and Event.succeed, same heap entry.
        now = sim._now
        self._busy_area += in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use + 1
        # The waiter can still be interrupted between the grant and the
        # event processing (same timestep); the reclaim callback checks the
        # abandoned flag at processing time and returns the unit — without
        # it an interrupted hedged/coalesced read would hold the grant
        # forever (a doubly-granted leak).
        event._callbacks.append(self._reclaim_unit)
        event._scheduled = True
        if race is not None:
            race.on_ordered(event, "callbacks")
            race.on_write(event, "state")
            race.on_schedule(now)
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (now, sequence, event))
        return event

    def take(self) -> bool:
        """Hold one unit at once, when that is exactly what ``yield
        request()`` would do; else return False.

        The idiom is ``if not res.take(): yield res.request()``.  It grants
        only when :meth:`request` would grant uncontended, no queued entry
        is due now, and the simulator allows in-line continuation (see
        :meth:`Simulator.advance`): the grant's entry would be the very
        next one popped and would resume only the running fiber.  The busy
        accounting is :meth:`request`'s.
        """
        sim = self.sim
        if not sim._inline:
            return False
        in_use = self._in_use
        if in_use == self.capacity:
            return False
        heap = sim._heap
        now = sim._now
        if heap and heap[0][0] <= now:
            return False
        self._busy_area += in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use + 1
        return True

    def release(self) -> None:
        in_use = self._in_use
        if not in_use:
            raise ValueError("release with no unit in use")
        sim = self.sim
        if sim.race is not None:
            sim.race.on_ordered(self, "queue")
        now = sim._now
        self._busy_area += in_use * (now - self._last_change)
        self._last_change = now
        waiters = self._waiters
        while waiters:
            # The unit passes straight to the first requester still
            # listening (one interrupted while queued is dropped).
            event = waiters.popleft()
            if not event.abandoned:
                event.add_callback(self._reclaim_unit)
                event.succeed()
                return
        self._in_use = in_use - 1

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def _reclaim(self, event: Event) -> None:
        if event.abandoned:
            self.release()

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
