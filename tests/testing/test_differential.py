"""Differential harness: agreement, typed failure classes, replay, and the
deliberately-planted-bug check that proves the harness can actually catch a
device-side matcher bug.
"""

import itertools
import types

import pytest

import repro.db.ndp
from repro.testing.differential import (
    ARMS,
    replay,
    rows_match,
    run_case,
    run_sweep,
    summarize,
)


# ------------------------------------------------------------- row comparison
def test_rows_match_ignores_order():
    assert rows_match([(1, "a"), (2, "b")], [(2, "b"), (1, "a")])


def test_rows_match_float_tolerance():
    assert rows_match([(1.0000000000001,)], [(1.0,)])
    assert not rows_match([(1.01,)], [(1.0,)])
    assert rows_match([(3,)], [(3.0,)])  # int vs float sum representations


def test_rows_match_detects_differences():
    assert not rows_match([(1,)], [(1,), (2,)])
    assert not rows_match([(1, "a")], [(1, "b")])


# ----------------------------------------------------------------- agreement
def test_small_sweep_without_faults_all_match():
    results = run_sweep(range(10), faults=False)
    assert [r.outcome for r in results] == ["match"] * 10
    assert summarize(results)["offloaded"] > 0


def test_small_sweep_with_faults_never_mismatches():
    results = run_sweep(range(200, 212), faults=True)
    assert all(r.outcome in ("match", "device-error") for r in results)
    assert summarize(results)["faults_injected"] > 0


def test_device_error_outcome_is_typed_with_context():
    # Seed 2063 draws the harsh profile and loses a page to retry exhaustion
    # (stable: the whole case derives from the seed; re-picked for the v3
    # generator stream).
    result = run_case(2063, faults=True)
    assert result.outcome == "device-error"
    assert "channel=" in result.detail
    assert result.fault_counters["ecc_injected"] > 0


def test_repro_line_replays_identically():
    original = run_case(42, faults=True)
    replayed = replay(original.repro)
    assert replayed.outcome == original.outcome
    assert replayed.detail == original.detail
    assert replayed.offloaded == original.offloaded
    assert replayed.fault_counters == original.fault_counters


def test_every_result_carries_a_repro_line():
    for result in run_sweep(range(3), faults=False):
        assert result.repro.startswith("REPRO: seed=")


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_replay_reproduces_every_arm(arm):
    """The REPRO line names its arm, so replaying a sharded, fast-path,
    perturbed or interleaved case reruns that arm, not the ndp one.
    Seed 0 crashes a shard primary on the sharded arm."""
    original = run_case(0, True, arm)
    assert original.repro.endswith(":arm=%s" % arm)
    replayed = replay(original.repro)
    assert replayed.repro == original.repro
    assert replayed.outcome == original.outcome
    assert replayed.detail == original.detail
    assert replayed.fault_counters == original.fault_counters


def test_faults_injected_counts_only_injector_faults():
    """Event totals, fused pages and fleet counters are not faults: a
    fault-free fast-path sweep (and a sharded one) reports none."""
    assert summarize(run_sweep(range(3), faults=False, arm="fastpath"))[
        "faults_injected"] == 0
    assert summarize(run_sweep(range(3), arm="sharded"))["faults_injected"] == 0


# ------------------------------------------------------ concurrent schedules
def test_interleaving_does_not_change_results():
    """NDP vs host vs reference, with a second app sharing the device.

    Each seeded case re-runs the differential query while a companion
    SSDlet application (drawn by gen_schedule) runs concurrently on the
    same device.  Concurrency may reorder device work arbitrarily; the row
    sets must not change.
    """
    results = run_sweep(range(40, 52), faults=False, arm="interleaved")
    assert [r.outcome for r in results] == ["match"] * len(results)
    companions = {r.detail.split()[-1] for r in results}
    assert companions == {"string_search", "pointer_chase"}
    assert any(r.offloaded for r in results)


def test_perturbed_tie_breaking_does_not_change_results():
    """The interleaving-sanitizer arm: each case runs twice, the replay
    reversing pop order inside every provably order-free same-timestamp
    batch.  Every case must stay hazard-free and bit-identical, and the
    perturbation must actually engage (batches reversed) somewhere in the
    window — an arm that never reverses anything gates nothing."""
    results = run_sweep(range(4), faults=False, arm="perturbed")
    assert [r.outcome for r in results] == ["match"] * len(results)
    assert sum(r.fault_counters["reversed"] for r in results) > 0
    assert all("REPRO:" in r.repro for r in results)


# ------------------------------------------------------------- planted bug
def test_planted_matcher_bug_is_caught(monkeypatch):
    """Corrupt the device-side filter kernels; the sweep must notice.

    The wrapper drops every 7th matching row, which only affects the NDP
    path (the host executor and the planner reach repro.db.kernels through
    their own module attribute), so any detected mismatch is the
    differential check — not the reference — doing the work.
    """
    real = repro.db.ndp.kernels
    counter = itertools.count(1)

    def buggy_select(positions, pred=None, exprs=None):
        kernel = real.select(positions, pred, exprs)
        if pred is None:
            return kernel
        return lambda rows: [row for row in kernel(rows) if next(counter) % 7]

    monkeypatch.setattr(repro.db.ndp, "kernels", types.SimpleNamespace(
        select=buggy_select, fold=real.fold))
    # Seed window picked for the v3 generator stream.
    results = run_sweep(range(15, 30), faults=False)
    mismatches = [r for r in results if r.outcome == "mismatch"]
    assert mismatches, "harness failed to catch the planted device-side bug"
    assert all("REPRO:" in r.detail for r in mismatches)
