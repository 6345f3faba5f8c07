"""SQL under fault storms: the resilient differential arm.

A replicated scan through the resilient driver, its primary under an
error-capable storm, must equal the fault-free SQLite reference (no
``device-error``).  The sweep and soak are the ``resilient`` row of
``tests/integration/test_differential_arms.py``; the sweep tests below read
that row's cached results.  Replay a failure's ``REPRO:`` line with
``repro.testing.differential.replay``.
"""

from repro.testing.differential import replay, run_case, summarize

from tests.integration.test_differential_arms import check_sweep, sweep


def test_resilient_sweep_50_cases_all_match():
    results = sweep("resilient")[:50]  # seeds 0-49
    assert all(r.outcome == "match" for r in results)
    # The storm must actually bite, and the recovery machinery must be used.
    assert sum(summarize([r])["faults_injected"] > 0 for r in results) >= 10
    for key in ("driver_retries", "driver_failovers"):
        assert sum(r.fault_counters.get(key, 0) for r in results) > 0, key


def test_resilient_sweep_exercises_every_mechanism():
    """Over seeds 0-79 all match and every recovery mechanism fires: retry,
    device failover, hedging, crash handling."""
    check_sweep("resilient")


def test_resilient_case_carries_repro_line():
    result = run_case(7, arm="resilient")
    assert result.repro.startswith("REPRO: seed=7 ")
    assert result.repro.endswith(":arm=resilient")
    assert result.outcome == "match"


def test_resilient_repro_line_replays_identically():
    original = run_case(11, arm="resilient")
    replayed = replay(original.repro)
    assert replayed.outcome == original.outcome
    assert replayed.detail == original.detail
    assert replayed.fault_counters == original.fault_counters
