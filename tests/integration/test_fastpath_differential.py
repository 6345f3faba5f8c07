"""The fast-path arm: fused-on vs fused-off must be bit-identical.  The
sweep is the ``fastpath`` row of ``test_differential_arms``."""

from repro.testing.differential import run_case

from tests.integration.test_differential_arms import check_sweep


def test_fastpath_sweep_60_cases():
    check_sweep("fastpath")


def test_fastpath_case_reports_counters():
    result = run_case(3, faults=False, arm="fastpath")
    assert result.outcome == "match"
    assert set(result.fault_counters) == {
        "fast_events", "slow_events", "fused_pages"}
