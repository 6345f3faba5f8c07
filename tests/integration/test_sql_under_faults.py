"""SQL under fault storms: the resilient arm of the differential sweep.

Every seeded case replicates its table on a second device, puts an
error-capable fault storm on the primary (uncorrectable bursts, stalls,
possibly a whole-device crash window) and only latency faults on the
replica, then runs the query through the resilient scan driver
(checkpointed retry/resume, hedged reads, replica failover).  The result
must be **byte-identical** to the fault-free SQLite reference —
``device-error`` is not an acceptable outcome here, unlike the fail-fast
sweep: with a clean replica and a finite storm, recovery must converge.

Failures print a one-line ``REPRO:`` token; replay with
``repro.testing.differential.replay_resilient``.
"""

import pytest

from repro.testing.differential import (
    replay_resilient,
    run_case_resilient,
    run_resilient_sweep,
)


def _injected(result):
    """Total faults injected into this case (primary-side storm)."""
    return sum(v for k, v in result.fault_counters.items()
               if k.endswith("_injected"))


def _assert_all_match(results):
    bad = [r for r in results if r.outcome != "match"]
    assert not bad, "\n".join(
        "%s: %s | %s" % (r.outcome, r.detail, r.repro) for r in bad)


def test_resilient_sweep_50_cases_all_match():
    results = run_resilient_sweep(range(50))
    _assert_all_match(results)
    # The storm must actually bite: a healthy fraction of cases see
    # injected faults, and the recovery machinery must have been used.
    faulted = [r for r in results if _injected(r) > 0]
    assert len(faulted) >= 10
    retries = sum(r.fault_counters.get("driver_retries", 0) for r in results)
    failovers = sum(r.fault_counters.get("driver_failovers", 0)
                    for r in results)
    assert retries > 0
    assert failovers > 0


def test_resilient_case_carries_repro_line():
    result = run_case_resilient(7)
    assert result.repro.startswith("REPRO: seed=7 ")
    assert result.outcome == "match"


def test_resilient_repro_line_replays_identically():
    original = run_case_resilient(11)
    replayed = replay_resilient(original.repro)
    assert replayed.outcome == original.outcome
    assert replayed.detail == original.detail
    assert replayed.fault_counters == original.fault_counters


def test_resilient_sweep_exercises_every_mechanism():
    """Across a window of seeds, each recovery mechanism fires at least once:
    retry, resume-from-checkpoint, device failover, hedging, crash handling.
    """
    totals = {}
    for result in run_resilient_sweep(range(80)):
        assert result.outcome == "match", result.detail
        for key, value in result.fault_counters.items():
            totals[key] = totals.get(key, 0) + value
    assert totals.get("driver_retries", 0) > 0
    assert totals.get("driver_failovers", 0) > 0
    assert totals.get("driver_hedges_fired", 0) > 0
    assert totals.get("driver_hedge_wins", 0) > 0
    assert totals.get("driver_crashes_seen", 0) > 0
    assert totals.get("crashes_injected", 0) > 0
    assert totals.get("uncorrectable_injected", 0) > 0


@pytest.mark.faults
def test_resilient_soak_200_cases():
    """The long soak: 200 seeded storms, zero wrong answers."""
    results = run_resilient_sweep(range(1000, 1200))
    _assert_all_match(results)
    assert sum(1 for r in results if _injected(r) > 0) >= 40
