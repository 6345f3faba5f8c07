"""The standing recovery benchmark: correctness and determinism."""

import pytest

from repro.bench.resilience import exp_resilience, run_resilience_bench


def test_small_storm_run_is_correct_and_faulted():
    report = run_resilience_bench(num_queries=6, num_rows=4000, seed=7)
    assert report["wrong_results"] == 0
    assert report["queries"] == 6
    assert report["driver_scans"] == 6
    assert report["faulted_fraction"] >= 0.01  # the storm must bite
    assert report["goodput_qps"] > 0
    assert report["p99_us"] >= report["p50_us"] > 0


def test_same_seed_reproduces_the_exact_report():
    first = run_resilience_bench(num_queries=5, num_rows=4000, seed=11)
    second = run_resilience_bench(num_queries=5, num_rows=4000, seed=11)
    assert first == second


def test_exp_resilience_reports_zero_wrong_results():
    result = exp_resilience()
    metric = dict((row[0], row[1]) for row in result.rows)
    assert metric["wrong_results"] == 0
    assert metric["faulted_fraction"] >= 0.01
    assert result.metrics["wrong_results"] == 0


@pytest.mark.faults
def test_storm_soak_many_seeds_zero_wrong_results():
    """Opt-in soak: the standing benchmark across several storm seeds."""
    for seed in (1, 2, 3, 5, 8, 13):
        report = run_resilience_bench(num_queries=8, num_rows=6000, seed=seed)
        assert report["wrong_results"] == 0, (seed, report)
        assert report["driver_gave_up"] == 0, (seed, report)
