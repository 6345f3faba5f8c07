"""The ready queue: events due now wait on a FIFO in front of the heap.

Every heap entry is due strictly after ``now``; everything due at ``now``
sits on ``Simulator._ready`` in trigger order.  When the queue runs dry the
drain moves the heap's earliest instant onto it, so dispatch order is the
one the heap alone gave: time, then schedule order.  These tests pin that
order, the readers that must look at the queue first (``peek``, ``take``,
``advance``), and where an exception leaves the rest of an instant.
"""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from tests.sim.test_drain_equivalence import World


def _note(sim, log, label):
    return lambda _event: log.append((sim.now, label))


def _drain(sim, how):
    if how == "step":
        while sim.peek() is not None:
            sim.step()
    else:
        sim.run()


def _future_only(sim):
    return all(when > sim.now for when, _seq, _event in sim._heap)


@pytest.mark.parametrize("how", ["run", "step", "monitored"])
def test_an_entry_due_before_its_instant_runs_before_one_triggered_at_it(how):
    sim = Simulator(race_check=how == "monitored")
    log = []
    sim.timeout(5).add_callback(_note(sim, log, "early"))

    def trigger():
        yield sim.timeout(5)
        log.append((sim.now, "fiber"))
        now_event = sim.event()
        now_event.add_callback(_note(sim, log, "triggered"))
        now_event.succeed()
        sim.timeout(0).add_callback(_note(sim, log, "zero"))

    def late():
        yield sim.timeout(3)
        # Pushed at t=3 for t=5: it precedes everything triggered at t=5.
        sim.timeout(2).add_callback(_note(sim, log, "late"))

    sim.process(trigger())
    sim.process(late())
    _drain(sim, how)
    assert log == [(5, "early"), (5, "fiber"), (5, "late"),
                   (5, "triggered"), (5, "zero")]


def test_a_zero_timeout_keeps_trigger_order_among_succeeds():
    sim = Simulator(race_check=False)
    log = []

    def fiber():
        yield sim.timeout(4)
        first, last = sim.event(), sim.event()
        first.add_callback(_note(sim, log, "first"))
        last.add_callback(_note(sim, log, "last"))
        first.succeed()
        sim.timeout(0).add_callback(_note(sim, log, "zero"))
        last.succeed()

    sim.run(sim.process(fiber()))
    assert log == [(4, "first"), (4, "zero"), (4, "last")]


def test_peek_returns_now_while_anything_is_ready():
    sim = Simulator(race_check=False)
    sim.timeout(7)
    sim.run(until=4)
    assert sim.peek() == 7
    sim.event().succeed()
    assert sim.peek() == 4  # not the heap front
    sim.step()
    assert (sim.now, sim.peek()) == (4, 7)
    sim.step()
    assert (sim.now, sim.peek()) == (7, None)


def test_take_and_advance_refuse_while_anything_is_ready():
    sim = Simulator(race_check=False)
    resource = Resource(sim, capacity=2)

    def fiber():
        yield sim.timeout(1)
        took = resource.take()  # in line, nothing ready: granted
        resource.release()
        sim.event().succeed()  # due now: the next entry is no longer ours
        refused = (resource.take(), sim.advance(0), sim.advance(3))
        return took, refused, sim.now, resource.in_use

    assert sim.run(sim.process(fiber())) == (True, (False, False, False),
                                             1, 0)


def _bombed_instant(sim, log):
    """Four entries due at t=5 (``a`` to ``d``), of which ``c`` raises in
    its callback and ``a`` triggers ``later``, due at 5 behind them."""
    later = sim.event()
    later.add_callback(_note(sim, log, "later"))

    def first(_event):
        log.append((sim.now, "a"))
        later.succeed()

    def boom(_event):
        raise RuntimeError("boom")

    a, b, c, d = (sim.timeout(5) for _ in range(4))
    a.add_callback(first)
    b.add_callback(_note(sim, log, "b"))
    c.add_callback(boom)
    d.add_callback(_note(sim, log, "d"))
    sim.timeout(6).add_callback(_note(sim, log, "next"))
    return {"a": a, "b": b, "d": d, "later": later}


@pytest.mark.parametrize("monitored", [False, True], ids=["plain", "monitored"])
@pytest.mark.parametrize("crash", ["run", "step"])
@pytest.mark.parametrize("resume", ["run", "step"])
def test_an_exception_leaves_the_rest_of_the_instant_ready(
        monitored, crash, resume):
    sim = Simulator(race_check=monitored)
    log = []
    events = _bombed_instant(sim, log)
    with pytest.raises(RuntimeError, match="boom"):
        _drain(sim, crash)
    assert sim.now == 5
    assert list(sim._ready) == [events["d"], events["later"]]
    assert _future_only(sim)
    _drain(sim, resume)
    assert log == [(5, "a"), (5, "b"), (5, "d"), (5, "later"), (6, "next")]


def test_a_reversed_batch_puts_its_rest_back_in_trigger_order():
    sim = Simulator(race_check=True)
    sim.race.plan = frozenset({0})  # reverse the first batch (t=5)
    log = []
    events = _bombed_instant(sim, log)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    # Reversed, the batch ran d, then c raised: a and b are left, in their
    # original order, and nothing was triggered behind them.
    assert log == [(5, "d")]
    assert sim.race.reversed_batches == 1
    assert list(sim._ready) == [events["a"], events["b"]]
    # A crashed batch is never counted, so the plan would reverse the
    # remainder's batch as well; resume it in its own order.
    sim.race.plan = frozenset()
    sim.run()
    assert log == [(5, "d"), (5, "a"), (5, "b"), (5, "later"), (6, "next")]


class CheckedSimulator(Simulator):
    """Asserts after every public call that the heap holds only the future
    (what is due now is on ``_ready``)."""

    def __init__(self, race_check=False):
        super().__init__(race_check=race_check)
        self.checks = 0
        timeout, process = self.timeout, self.process
        self.timeout = lambda *args, **kwargs: self._checked(
            timeout(*args, **kwargs))
        self.process = lambda *args, **kwargs: self._checked(
            process(*args, **kwargs))

    def _checked(self, result):
        assert _future_only(self), (self.now, sorted(self._heap)[:1])
        self.checks += 1
        return result

    def event(self):
        return self._checked(super().event())

    def step(self):
        return self._checked(super().step())

    def peek(self):
        return self._checked(super().peek())

    def advance(self, delay_ns):
        return self._checked(super().advance(delay_ns))

    def run(self, until=None):
        try:
            return super().run(until)
        finally:
            self._checked(None)


@pytest.mark.parametrize("monitored", [False, True], ids=["plain", "monitored"])
def test_no_heap_entry_is_ever_due_now(monitored):
    checks = 0
    for seed in range(12):
        sim = CheckedSimulator(race_check=monitored)
        world = World(sim, seed, bombs=2)
        rng = random.Random(seed)
        while sim.peek() is not None:
            try:
                if rng.random() < 0.3:
                    sim.step()
                else:
                    sim.run(until=sim.now + rng.randint(0, 6))
            except RuntimeError:
                continue
        world.outcome()
        checks += sim.checks
    assert checks > 1000
