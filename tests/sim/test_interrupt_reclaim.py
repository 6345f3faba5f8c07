"""Interrupting a fiber with an in-flight grant must not leak the grant.

Hedged/coalesced reads cancel their losing leg with ``Process.interrupt``
at arbitrary points — including the window *between* a Resource grant
being made (the unit moved, succeed scheduled) and the grant event being
processed.  Before the reclaim fix, a leg interrupted inside that window
kept the unit forever (a doubly-granted leak); and a wait target that
later *failed* with nobody listening crashed the whole simulation.
"""

import pytest

from repro.sim.engine import Event, Interrupt, SimulationError, Simulator
from repro.sim.resources import Resource


# ------------------------------------------------------- resource grant leak
def test_interrupt_between_grant_and_processing_returns_units():
    """Release at t=10 grants to the waiter; interrupting the waiter in the
    same timestep (before its resume runs) must give the units back."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    waiter_box = {}

    def holder():
        yield resource.request()
        yield sim.timeout(10)
        resource.release()  # grants to the waiter *now*, resume pending
        waiter_box["proc"].interrupt("cancelled in the grant window")

    def waiter():
        try:
            yield resource.request()
        except Interrupt:
            return "interrupted"
        resource.release()
        return "granted"

    sim.process(holder())  # acquires first: the waiter queues behind it
    waiter_box["proc"] = sim.process(waiter())
    sim.run()
    assert waiter_box["proc"].value == "interrupted"
    # The reclaim callback must have returned the in-flight grant.
    assert resource.in_use == 0
    assert resource.available == 1


def test_reclaimed_units_flow_to_the_next_waiter():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    grants = []
    box = {}

    def holder():
        yield resource.request()
        yield sim.timeout(10)
        resource.release()
        box["victim"].interrupt()

    def victim():
        try:
            yield resource.request()
        except Interrupt:
            pass

    def heir():
        yield sim.timeout(1)  # queue behind the victim
        yield resource.request()
        grants.append(sim.now)
        resource.release()

    sim.process(holder())
    box["victim"] = sim.process(victim())
    sim.process(heir())
    sim.run()
    assert grants == [10]
    assert resource.in_use == 0


# ------------------------------------------------- abandoned-target failures
def test_failure_of_abandoned_wait_target_does_not_crash_the_sim():
    """A losing hedge leg is interrupted while waiting on an event that then
    fails; with the leg gone, the failure has no listener and must be
    swallowed (defused), not raised as an unhandled simulation error."""
    sim = Simulator()
    doomed = Event(sim)
    box = {}

    def controller():
        yield sim.timeout(5)
        box["leg"].interrupt("hedge loser")
        yield sim.timeout(5)
        doomed.fail(RuntimeError("stripe read died"))
        yield sim.timeout(5)
        return "survived"

    def leg():
        try:
            yield doomed
        except Interrupt:
            return "cancelled"
        return "completed"

    box["leg"] = sim.process(leg())
    value = sim.run(sim.process(controller()))
    assert value == "survived"
    assert box["leg"].value == "cancelled"


def test_unwatched_failures_still_raise_without_an_interrupt():
    """The defusing is scoped to interrupted waits: an event that fails with
    no listeners and no interrupt remains an unhandled failure."""
    sim = Simulator()
    doomed = Event(sim)

    def igniter():
        yield sim.timeout(1)
        doomed.fail(RuntimeError("nobody is listening"))

    sim.process(igniter())
    with pytest.raises(SimulationError):
        sim.run()


def test_non_abandoned_grants_unaffected_by_reclaim_callback():
    """The reclaim callback is a no-op on the normal path: grants still
    deliver exactly once, bookkeeping unchanged."""
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    log = []

    def user(tag, hold):
        yield resource.request()
        log.append(("got", tag, sim.now))
        yield sim.timeout(hold)
        resource.release()

    for index, hold in enumerate((7, 11, 13)):
        sim.process(user(index, hold))
    sim.run()
    assert [entry[0] for entry in log] == ["got"] * 3
    assert resource.in_use == 0
    assert resource.available == 2
