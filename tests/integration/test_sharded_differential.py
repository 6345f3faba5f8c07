"""The sharded acceptance sweep: ≥60 seeded cases, scatter-gather results
row-identical (after canonical ordering) to the single-device NDP arm and
the SQLite reference — including cases where one shard's primary node
is crashed before the query runs (replica failover must be answer-invisible).
"""

import pytest

from repro.testing.differential import run_sharded_sweep, summarize


def test_sharded_differential_sweep_64_cases():
    results = run_sharded_sweep(range(64))
    summary = summarize(results)
    assert summary["cases"] == 64
    # Clean crashes with replication 2 always leave an alive copy, so the
    # only acceptable outcome — crashed primary or not — is a match.
    failures = [r.detail or r.outcome
                for r in results if r.outcome != "match"]
    assert not failures, "\n".join(failures)

    # The sweep must actually exercise what it claims to:
    crash_cases = [r for r in results if r.faults]
    assert len(crash_cases) >= 10, "crash-primary draw never fired"
    assert all(r.outcome == "match" for r in crash_cases)
    # ...failover paths really ran on the crashed-primary cases,
    assert any(r.fault_counters["failovers"] > 0 for r in crash_cases)
    # ...both the single-device and the fleet engines offloaded,
    assert summary["offloaded"] >= 40
    # ...and partition-constraint pruning produced at least one
    # single-shard scatter alongside full-fleet fan-outs.
    fan_outs = sorted(r.fault_counters["max_fan_out"] for r in results)
    assert fan_outs[0] == 1 and fan_outs[-1] >= 4


@pytest.mark.faults
def test_sharded_differential_soak_200_cases():
    results = run_sharded_sweep(range(2000, 2200))
    failures = [r.detail or r.outcome
                for r in results if r.outcome != "match"]
    assert not failures, "\n".join(failures)
    assert summarize(results)["cases"] == 200
