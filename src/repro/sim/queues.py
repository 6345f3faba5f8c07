"""Bounded queues — the transport that backs every Biscuit I/O port.

The paper (Section IV-B, "I/O Ports as Bounded Queues") implements every port
connection as a bounded queue; SPMC and MPSC connections share one queue and
need no locking because the fibers at both ends run on the same processor.
That lock-freedom is inherent here: the simulation kernel is cooperative, so a
queue operation can never be preempted mid-flight.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Tuple

from repro.sim.engine import Event, Simulator

__all__ = ["BoundedQueue", "QueueClosed"]


class QueueClosed(Exception):
    """Raised by ``get`` when the queue is closed and drained, or ``put`` on a closed queue."""


class BoundedQueue:
    """FIFO queue with blocking (event-returning) put/get and close semantics.

    ``put`` blocks (its event stays pending) while the queue is full; ``get``
    blocks while it is empty.  After :meth:`close`, remaining items may still
    be drained; once empty, pending and future ``get`` events fail with
    :class:`QueueClosed`.
    """

    def __init__(self, sim: Simulator, capacity: int = 16, name: str = ""):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()
        self._closed = False
        # Counters for instrumentation / tests.
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event triggers when the item is in."""
        event = Event(self.sim)
        if self._closed:
            event.defused = True
            return event.fail(QueueClosed("put on closed queue %s" % self.name))
        self._putters.append((event, item))
        self._service()
        return event

    def get(self) -> Event:
        """Dequeue one item; the returned event carries it as its value."""
        event = Event(self.sim)
        if self._closed and not self._items and not self._putters:
            event.defused = True
            return event.fail(QueueClosed("queue %s closed" % self.name))
        self._getters.append(event)
        self._service()
        return event

    def close(self) -> None:
        """Close the queue; drained getters fail with :class:`QueueClosed`."""
        if self._closed:
            return
        self._closed = True
        self._service()

    def _service(self) -> None:
        """Move items from putters to the buffer to getters, FIFO-fair."""
        progressed = True
        while progressed:
            progressed = False
            # Admit waiting putters while there is capacity.
            while self._putters and len(self._items) < self.capacity:
                event, item = self._putters.popleft()
                self._items.append(item)
                self.total_put += 1
                if not event.triggered:
                    event.succeed()
                progressed = True
            # Satisfy waiting getters while there are items.
            while self._getters and self._items:
                event = self._getters.popleft()
                item = self._items.popleft()
                self.total_got += 1
                event.succeed(item)
                progressed = True
        if self._closed and not self._items and not self._putters:
            while self._getters:
                event = self._getters.popleft()
                event.defused = True
                event.fail(QueueClosed("queue %s closed" % self.name))
