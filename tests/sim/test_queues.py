"""Bounded queues: FIFO, backpressure, close semantics, conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.queues import BoundedQueue, QueueClosed


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BoundedQueue(Simulator(), capacity=0)


def test_put_get_fifo():
    sim = Simulator()
    queue = BoundedQueue(sim, capacity=8)
    out = []

    def producer():
        for i in range(5):
            yield queue.put(i)

    def consumer():
        for _ in range(5):
            out.append((yield queue.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_put_blocks_when_full():
    sim = Simulator()
    queue = BoundedQueue(sim, capacity=2)
    progress = []

    def producer():
        for i in range(4):
            yield queue.put(i)
            progress.append(i)

    def consumer():
        yield sim.timeout(1000)
        while len(queue):
            yield queue.get()
            yield sim.timeout(1000)

    sim.process(producer())
    sim.process(consumer())
    sim.run(until=500)
    # Only the first two puts landed before the consumer started draining.
    assert progress == [0, 1]
    sim.run()
    assert progress == [0, 1, 2, 3]


def test_get_blocks_when_empty():
    sim = Simulator()
    queue = BoundedQueue(sim)
    got = []

    def consumer():
        got.append((yield queue.get()))

    sim.process(consumer())
    sim.run(until=100)
    assert got == []
    queue.put("late")
    sim.run()
    assert got == ["late"]


def test_close_drains_then_raises():
    sim = Simulator()
    queue = BoundedQueue(sim, capacity=4)
    result = {}

    def consumer():
        items = []
        while True:
            try:
                items.append((yield queue.get()))
            except QueueClosed:
                result["items"] = items
                return

    def producer():
        for i in range(3):
            yield queue.put(i)
        queue.close()

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert result["items"] == [0, 1, 2]


def test_put_after_close_fails():
    sim = Simulator()
    queue = BoundedQueue(sim)
    queue.close()

    def producer():
        try:
            yield queue.put(1)
        except QueueClosed:
            return "refused"

    assert sim.run(sim.process(producer())) == "refused"


def test_close_fails_pending_getters():
    sim = Simulator()
    queue = BoundedQueue(sim)

    def consumer():
        try:
            yield queue.get()
        except QueueClosed:
            return "closed"

    proc = sim.process(consumer())
    sim.run(until=10)
    queue.close()
    assert sim.run(proc) == "closed"


def test_close_idempotent():
    queue = BoundedQueue(Simulator())
    queue.close()
    queue.close()
    assert queue.closed


def test_len_full_empty():
    queue = BoundedQueue(Simulator(), capacity=2)
    assert queue.empty and not queue.full and len(queue) == 0
    queue.put(1)  # a free slot admits the item at once
    queue.put(2)
    assert queue.full and not queue.empty and len(queue) == 2


def test_multiple_producers_single_consumer():
    sim = Simulator()
    queue = BoundedQueue(sim, capacity=4)
    received = []

    def producer(tag):
        for i in range(10):
            yield queue.put((tag, i))

    def consumer():
        for _ in range(30):
            received.append((yield queue.get()))

    for tag in "abc":
        sim.process(producer(tag))
    sim.process(consumer())
    sim.run()
    assert len(received) == 30
    # Per-producer order preserved even when interleaved.
    for tag in "abc":
        assert [i for t, i in received if t == tag] == list(range(10))


def test_single_producer_multiple_consumers_share_items():
    sim = Simulator()
    queue = BoundedQueue(sim, capacity=4)
    received = {"x": [], "y": []}

    def producer():
        for i in range(20):
            yield queue.put(i)
        queue.close()

    def consumer(name):
        while True:
            try:
                item = yield queue.get()
            except QueueClosed:
                return
            received[name].append(item)

    sim.process(producer())
    sim.process(consumer("x"))
    sim.process(consumer("y"))
    sim.run()
    # Work-sharing, not broadcast: every item delivered exactly once.
    assert sorted(received["x"] + received["y"]) == list(range(20))
    assert received["x"] and received["y"]


@settings(max_examples=40, deadline=None)
@given(
    items=st.lists(st.integers(), min_size=0, max_size=60),
    capacity=st.integers(min_value=1, max_value=7),
)
def test_property_fifo_and_conservation(items, capacity):
    """Whatever the capacity, everything comes out once, in order."""
    sim = Simulator()
    queue = BoundedQueue(sim, capacity=capacity)
    out = []

    def producer():
        for item in items:
            yield queue.put(item)
        queue.close()

    def consumer():
        while True:
            try:
                out.append((yield queue.get()))
            except QueueClosed:
                return

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert out == items
    assert queue.total_put == queue.total_got == len(items)
