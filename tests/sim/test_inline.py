"""In-line continuation: ``Resource.take`` and ``Simulator.advance``.

Each grants (or moves the clock) at once only when the entry it stands in
for would be the very next one dispatched and would resume only the running
fiber.  In every other case it refuses, and the caller yields as before.
"""

import pytest

from repro.sim.engine import Interrupt, Simulator
from repro.sim.resources import Resource


def _inside(sim, probe):
    """Run ``probe()`` in a fiber resumed by the last (only) callback of a
    plain timeout entry on ``sim``'s drain; returns what ``probe`` returns."""
    def fiber():
        yield sim.timeout(1)
        return probe()
    return sim.run(sim.process(fiber()))


def test_take_grants_at_once_with_the_busy_accounting_of_request():
    def hold(inline):
        sim = Simulator(race_check=False)
        resource = Resource(sim, capacity=2)

        def fiber():
            yield sim.timeout(10)
            if not (inline and resource.take()):
                yield resource.request()
            held = resource.in_use
            yield sim.timeout(5)
            resource.release()
            return held

        assert sim.run(sim.process(fiber())) == 1
        return sim.now, resource.busy_area(), sim.events_processed

    now, area, events = hold(True)
    assert (now, area) == hold(False)[:2] == (15, 5)
    assert events == hold(False)[2] - 1  # the grant's entry was skipped


def test_advance_moves_the_clock_without_an_event():
    sim = Simulator(race_check=False)

    def probe():
        before = sim.events_processed
        return sim.advance(7), sim.now, sim.events_processed - before

    assert _inside(sim, probe) == (True, 8, 0)


def test_take_refuses_without_capacity_or_behind_waiters():
    sim = Simulator(race_check=False)
    resource = Resource(sim, capacity=2)

    def probe():
        full = resource.take(), resource.take(), resource.take()
        waiter = resource.request()  # queued: both units are held
        resource.release()  # hands the unit to the waiter
        return full, resource.take(), waiter.triggered

    assert _inside(sim, probe) == ((True, True, False), False, True)


def test_take_refuses_with_an_entry_queued_for_now():
    sim = Simulator(race_check=False)
    resource = Resource(sim)

    def probe():
        sim.event().succeed()
        return resource.take(), resource.in_use

    assert _inside(sim, probe) == (False, 0)


def test_advance_refuses_an_entry_at_or_before_the_new_time():
    sim = Simulator(race_check=False)

    def probe():
        sim.timeout(5)  # due at now + 5
        return sim.advance(6), sim.advance(5), sim.advance(4), sim.now

    # A tie at exactly now + 5 refuses: the queued entry would pop first.
    assert _inside(sim, probe) == (False, False, True, 5)


def test_advance_refuses_past_the_deadline():
    sim = Simulator(race_check=False)
    got = []

    def fiber():
        yield sim.timeout(2)
        got.append((sim.advance(9), sim.advance(8), sim.now))

    sim.process(fiber())
    sim.run(until=10)
    assert got == [(False, True, 10)]
    assert sim.now == 10


def test_nothing_continues_in_line_on_the_sentinel_callback():
    sim = Simulator(race_check=False)
    resource = Resource(sim)
    gate = sim.timeout(3)
    got = []

    def fiber():
        yield gate
        got.append((resource.take(), sim.advance(1)))

    sim.process(fiber())
    sim.run(gate)  # the gate's only callback resumes the fiber
    assert got == [(False, False)]


def test_only_the_last_callback_of_an_entry_continues_in_line():
    sim = Simulator(race_check=False)
    gate = sim.timeout(2)
    got = []

    def waiter(name):
        yield gate
        got.append((name, sim.advance(1)))
        yield sim.timeout(5)

    sim.process(waiter("first"))
    sim.process(waiter("last"))
    sim.run()
    assert got == [("first", False), ("last", True)]


def _probe_drained_by(sim, drain):
    resource = Resource(sim)
    got = []

    def fiber():
        yield sim.timeout(1)
        got.append((resource.take(), sim.advance(1)))

    sim.process(fiber())
    drain()
    return got


def test_refused_outside_run_under_step_and_under_the_race_monitor():
    sim = Simulator(race_check=False)
    assert (Resource(sim).take(), sim.advance(1)) == (False, False)

    def steps():
        while sim.peek() is not None:
            sim.step()

    assert _probe_drained_by(sim, steps) == [(False, False)]
    monitored = Simulator(race_check=True)
    assert _probe_drained_by(monitored, monitored.run) == [(False, False)]


def test_negative_advance_raises():
    sim = Simulator(race_check=False)
    with pytest.raises(ValueError):
        sim.advance(-1)
    with pytest.raises(ValueError):
        _inside(sim, lambda: sim.advance(-1))


def test_a_callback_that_raises_leaves_the_flag_clear():
    sim = Simulator(race_check=False)

    def explode(_event):
        raise RuntimeError("boom")

    sim.timeout(1).add_callback(explode)
    with pytest.raises(RuntimeError):
        sim.run()
    assert not sim._inline
    assert not sim.advance(1)


def test_a_fiber_that_interrupts_itself_waits_for_the_heap():
    """The deferred interrupt is delivered at the fiber's next resume, so
    the wait after it must not be skipped."""
    sim = Simulator(race_check=False)
    got = []

    def fiber():
        yield sim.timeout(1)
        me.interrupt("self")
        got.append(sim.advance(1))
        try:
            yield sim.timeout(1)
        except Interrupt as interrupt:
            got.append((interrupt.cause, sim.now))

    me = sim.process(fiber())
    sim.run()
    assert got == [False, ("self", 2)]
