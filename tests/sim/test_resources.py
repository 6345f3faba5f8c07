"""Counting resources."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import Resource


def test_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_request_within_capacity_is_immediate():
    sim = Simulator()
    resource = Resource(sim, capacity=2)

    def fiber():
        yield resource.request()
        yield resource.request()
        return sim.now

    assert sim.run(sim.process(fiber())) == 0
    assert resource.in_use == 2
    assert resource.available == 0


def test_request_blocks_until_release():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    times = {}

    def holder():
        yield resource.request()
        yield sim.timeout(100)
        resource.release()

    def waiter():
        yield sim.timeout(1)
        yield resource.request()
        times["granted"] = sim.now
        resource.release()

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert times["granted"] == 100


def test_fifo_grant_order():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def holder():
        yield resource.request()
        yield sim.timeout(10)
        resource.release()

    def waiter(tag, delay):
        yield sim.timeout(delay)
        yield resource.request()
        order.append(tag)
        yield sim.timeout(5)
        resource.release()

    sim.process(holder())
    for tag, delay in (("first", 1), ("second", 2), ("third", 3)):
        sim.process(waiter(tag, delay))
    sim.run()
    assert order == ["first", "second", "third"]


def test_release_more_than_held_rejected():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    with pytest.raises(ValueError):
        resource.release()  # nothing held yet

    def hold_once():
        yield resource.request()
        resource.release()

    sim.run(sim.process(hold_once()))
    with pytest.raises(ValueError):
        resource.release()  # the one unit held is already back
    assert resource.in_use == 0


def test_utilization_accounting():
    sim = Simulator()
    resource = Resource(sim, capacity=2)

    def fiber():
        yield resource.request()
        yield sim.timeout(100)
        resource.release()
        yield sim.timeout(100)

    sim.run(sim.process(fiber()))
    # 1 of 2 units held for half the elapsed time: utilization 0.25.
    assert abs(resource.utilization() - 0.25) < 1e-9
    assert resource.busy_area() == 100
