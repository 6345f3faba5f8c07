"""Runtime interleaving sanitizer (repro.analysis.races.RaceMonitor).

The monitor footprints each event callback within the same-timestamp
batches the engine pops; tied events with conflicting footprints
(write/write or read/write on the same object field) are ordering hazards.
The planted positives reconstruct the repo's two historical race shapes:
the PR 5 lost-interrupt bug (interrupt mutating a triggered-but-unprocessed
event that a tied entry dispatches) and a same-timestamp write/write on
shared fiber state.
"""

import os

import pytest

from repro.analysis.races import (
    OrderingHazardError,
    check_workload,
    note_write,
)
from repro.sim.engine import Interrupt, Simulator, race_check_from_env
from repro.sim.resources import Resource


# ------------------------------------------------------------ planted races
def lost_interrupt_reconstruction(race_check="on"):
    """The PR 5 shape: fiber B interrupts a process whose wait target
    already triggered in the same timestep.  B's interrupt mutates the
    target's state and callback list while the target's own dispatch — a
    *tied* heap entry — consumes them: which wins depends on pop order.
    (The engine now handles both orders; the monitor must still flag the
    footprint conflict, because it is what made the original bug latent.)
    """
    sim = Simulator(race_check=race_check)
    gate = sim.event()
    outcome = {}

    def victim():
        try:
            yield gate
        except Interrupt:
            outcome["victim"] = "interrupted"
            return
        outcome["victim"] = "resumed"

    victim_proc = sim.process(victim())

    def interrupter():
        yield sim.timeout(10)
        yield sim.timeout(0)  # land in the same batch as A's succeed
        victim_proc.interrupt("tied")

    def succeeder():
        yield sim.timeout(10)
        gate.succeed("value")

    sim.process(interrupter())  # created first: dispatches first in the tie
    sim.process(succeeder())
    sim.run()
    return sim, outcome


def test_lost_interrupt_race_is_detected():
    sim, outcome = lost_interrupt_reconstruction()
    assert outcome["victim"] == "interrupted"  # PR 5 semantics still hold
    hazards = sim.race.hazards
    assert hazards, "the PR 5 interleaving must be flagged"
    assert any(h.kinds == "read/write" and h.obj_field in ("state", "callbacks")
               for h in hazards)


def test_strict_mode_raises_on_the_lost_interrupt_race():
    with pytest.raises(OrderingHazardError):
        lost_interrupt_reconstruction(race_check="strict")


def test_synthetic_same_timestamp_write_write_collision():
    sim = Simulator(race_check=True)
    shared = {"count": 0}

    def bumper():
        yield sim.timeout(10)
        note_write(sim, shared, "count")
        shared["count"] += 1

    sim.process(bumper())
    sim.process(bumper())
    sim.run()
    assert any(h.kinds == "write/write" and h.obj_field == "count"
               for h in sim.race.hazards)
    assert shared["count"] == 2


def test_hazard_report_carries_time_and_parties():
    sim, _ = lost_interrupt_reconstruction()
    rendered = sim.race.report()
    assert rendered
    assert any("t=10ns" in line and "tied events" in line for line in rendered)


# ------------------------------------------------------- ordered, not racy
def test_fifo_contention_is_ordered_not_hazardous():
    """Two tied fibers requesting the same Resource: grant order is pinned
    by the engine's sequence numbers by design — no hazard, but the batch
    must be pinned against perturbation."""
    sim = Simulator(race_check=True)
    bus = Resource(sim, capacity=1)
    order = []

    def user(tag):
        yield sim.timeout(10)
        yield bus.request()
        order.append(tag)
        bus.release()

    sim.process(user("a"))
    sim.process(user("b"))
    sim.run()
    assert order == ["a", "b"]
    assert sim.race.hazards == []


def test_interrupt_reclaim_in_grant_window_is_not_flagged():
    """The *fixed* PR 5-adjacent flow (grant then same-timestep interrupt,
    tests/sim/test_interrupt_reclaim.py): the interrupt and the grant's
    dispatch land in structurally ordered (different) batches, so the
    monitor must not cry wolf."""
    sim = Simulator(race_check=True)
    resource = Resource(sim, capacity=1)
    box = {}

    def holder():
        yield resource.request()
        yield sim.timeout(10)
        resource.release()
        box["proc"].interrupt("cancelled in the grant window")

    def waiter():
        try:
            yield resource.request()
        except Interrupt:
            return "interrupted"
        resource.release()
        return "granted"

    sim.process(holder())
    box["proc"] = sim.process(waiter())
    sim.run()
    assert box["proc"].value == "interrupted"
    assert resource.in_use == 0
    assert sim.race.hazards == []


# ------------------------------------------------------------- activation
def test_env_var_enables_the_monitor(monkeypatch):
    monkeypatch.setenv("REPRO_RACE_CHECK", "1")
    assert Simulator().race is not None
    monkeypatch.setenv("REPRO_RACE_CHECK", "strict")
    assert Simulator().race.strict is True
    monkeypatch.setenv("REPRO_RACE_CHECK", "0")
    assert Simulator().race is None
    monkeypatch.delenv("REPRO_RACE_CHECK")
    assert Simulator().race is None
    assert Simulator(race_check=False).race is None


@pytest.mark.parametrize("raw, mode", [
    ("", None), ("0", None), ("off", None), ("no", None),
    ("1", "on"), ("yes", "on"), ("strict", "strict"), ("raise", "strict"),
])
def test_engine_and_perturbation_harness_read_the_env_var_alike(
        monkeypatch, raw, mode):
    monkeypatch.setenv("REPRO_RACE_CHECK", raw)
    assert race_check_from_env() == mode
    sim = Simulator()
    assert (sim.race is None) == (mode is None)
    if mode is not None:
        assert sim.race.strict == (mode == "strict")
    # The harness turns the monitor on when the variable says off and keeps
    # a strict setting strict.
    report = check_workload(lambda: Simulator().race.strict)
    assert report.result == (mode == "strict")
    assert os.environ["REPRO_RACE_CHECK"] == raw


def test_monitor_off_by_default_and_free_of_cost_hooks():
    sim = Simulator()
    assert sim.race is None


# ----------------------------------------------------------- perturbation
def clean_pipeline_workload():
    """A deterministic fan-out with genuinely independent tied events."""
    sim = Simulator()
    done = []

    def leaf(tag, delay_ns):
        yield sim.timeout(10)       # all leaves tie at t=10
        yield sim.timeout(delay_ns)  # then diverge to distinct timestamps
        done.append((sim.now, tag))

    for index in range(5):
        sim.process(leaf(index, 3 + index))
    sim.run()
    return tuple(done)


def test_perturbation_reverses_order_free_batches_bit_identically():
    report = check_workload(clean_pipeline_workload)
    assert report.hazards == []
    assert report.reversed_batches > 0, "the t=10 batch must qualify"
    assert report.digests_match and report.results_match
    assert report.clean


def test_perturbation_convicts_hidden_shared_state():
    """A workload whose result depends on tie order, with the coupling
    hidden from the monitor (no note_write): the footprint pass sees
    nothing, but the reversed replay diverges — the digest/result check is
    the backstop."""

    def order_sensitive_workload():
        sim = Simulator()
        log = []

        def racer(tag, delay_ns):
            yield sim.timeout(10)  # the tie batch
            log.append(tag)        # hidden: order-sensitive shared write
            yield sim.timeout(delay_ns)  # distinct targets: batch reversible

        sim.process(racer("a", 3))
        sim.process(racer("b", 4))
        sim.run()
        return tuple(log)

    report = check_workload(order_sensitive_workload)
    assert not report.clean
    assert not (report.digests_match and report.results_match)


def test_declared_write_write_is_caught_not_perturbed():
    def hazardous_workload():
        sim = Simulator()
        shared = {"count": 0}

        def bumper():
            yield sim.timeout(10)
            note_write(sim, shared, "count")
            shared["count"] += 1

        sim.process(bumper())
        sim.process(bumper())
        sim.run()
        return shared["count"]

    report = check_workload(hazardous_workload)
    assert report.hazards
    assert not report.clean
