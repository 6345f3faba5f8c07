"""The differential arms' acceptance sweeps: one row per arm.

A row names the arm's seed windows (each with its faults flag) for the
every-push sweep and for the ``faults``-marked soak (``pytest -m faults`` or
``make test-faults``), the outcomes it tolerates besides ``match``, and the
engagement checks that prove a window exercised what the arm claims — an
arm whose machinery never fired would pass its equality checks vacuously.
Every window is held to the same checks.

* ``ndp`` — NDP vs host vs SQLite reference.  A faulted case may end in a
  *typed* device error; a clean one must match.
* ``fastpath`` — fused fast path on vs off: rows, typed errors and the
  final ``sim.now`` exactly equal, faults or not (fault streams are
  pre-drawn per channel command, so even error cases fail on the same page
  at the same instant).
* ``resilient`` — a replicated scan through the resilient driver under a
  fault storm: with a clean replica and a finite storm, recovery must
  converge, so the answer equals the fault-free reference.
* ``sharded`` — scatter-gather over a sharded fleet vs the single-device
  NDP run, a shard primary crashed in about a third of the cases: with
  replication 2, failover must be answer-invisible.

A failure's ``REPRO:`` line replays it on its arm
(:func:`repro.testing.differential.replay`).
"""

import functools

import pytest

from repro.testing.differential import run_sweep, summarize


def _ndp_engaged(results):
    # Most generated predicates are matcher-amenable and the thresholds are
    # forced open, so the NDP engine offloads in the bulk of the cases...
    assert summarize(results)["offloaded"] >= 0.6 * len(results)
    # ...and fault injection actually fired.
    assert summarize(results)["faults_injected"] > 0


def _fastpath_engaged(results):
    assert all(set(r.fault_counters) == {"fast_events", "slow_events", "fused_pages"}
               for r in results)
    # An always-materializing (or never-engaging) fast path would pass the
    # equality check vacuously: fusion must engage...
    assert sum(r.fault_counters["fused_pages"] for r in results) > 100
    # ...and really shrink the event stream somewhere.
    assert any(r.fault_counters["fast_events"] < r.fault_counters["slow_events"]
               for r in results)
    # Query work offloaded in the bulk of the cases in both runs.
    assert summarize(results)["offloaded"] >= len(results) / 2


def _resilient_engaged(results):
    # The storm bites a healthy fraction of cases...
    faulted = [r for r in results if summarize([r])["faults_injected"] > 0]
    assert len(faulted) >= len(results) / 5
    # ...and every recovery mechanism fires: retry, device failover,
    # hedging, crash handling.
    totals = {}
    for result in results:
        for key, value in result.fault_counters.items():
            totals[key] = totals.get(key, 0) + value
    for key in ("driver_retries", "driver_failovers", "driver_hedges_fired",
                "driver_hedge_wins", "driver_crashes_seen",
                "crashes_injected", "uncorrectable_injected"):
        assert totals.get(key, 0) > 0, key


def _sharded_engaged(results):
    crash_cases = [r for r in results if r.faults]
    assert len(crash_cases) >= 10, "crash-primary draw never fired"
    # Failover paths really ran on the crashed-primary cases...
    assert any(r.fault_counters["failovers"] > 0 for r in crash_cases)
    # ...both the single-device and the fleet engines offloaded (40 of 64)...
    assert summarize(results)["offloaded"] >= 5 * len(results) / 8
    # ...and partition-constraint pruning produced at least one
    # single-shard scatter alongside full-fleet fan-outs.
    fan_outs = sorted(r.fault_counters["max_fan_out"] for r in results)
    assert fan_outs[0] == 1 and fan_outs[-1] >= 4


#: arm -> (sweep windows, soak windows, outcomes tolerated on faulted
#: cases besides "match", engagement check); a window is (seeds, faults).
ROWS = {
    "ndp": ([(range(60), True), (range(60, 100), False)],
            [(range(1000, 1300), True), (range(1300, 1400), False)],
            {"device-error"}, _ndp_engaged),
    "fastpath": ([(range(40), True), (range(40, 60), False)],
                 [(range(2000, 2150), True), (range(2150, 2200), False)],
                 set(), _fastpath_engaged),
    "resilient": ([(range(80), True)], [(range(1000, 1200), True)],
                  set(), _resilient_engaged),
    "sharded": ([(range(64), True)], [(range(2000, 2200), True)],
                set(), _sharded_engaged),
}


def _run(arm, windows):
    return [r for seeds, faults in windows
            for r in run_sweep(seeds, faults, arm)]


@functools.lru_cache(maxsize=None)
def sweep(arm):
    """The arm's every-push sweep, run once and shared with named tests."""
    return tuple(_run(arm, ROWS[arm][0]))


def check_sweep(arm):
    _check(arm, list(sweep(arm)), ROWS[arm][0])


def _check(arm, results, windows):
    _sweep, _soak, tolerated, engaged = ROWS[arm]
    assert summarize(results)["cases"] == sum(len(s) for s, _ in windows)
    bad = [r for r in results if r.outcome != "match"
           and not (r.faults and r.outcome in tolerated)]
    assert not bad, "\n".join(
        "%s: %s | %s" % (r.outcome, r.detail, r.repro) for r in bad)
    engaged(results)


@pytest.mark.parametrize("arm", sorted(ROWS))
def test_arm_sweep(arm):
    check_sweep(arm)


@pytest.mark.faults
@pytest.mark.parametrize("arm", sorted(ROWS))
def test_arm_soak(arm):
    windows = ROWS[arm][1]
    _check(arm, _run(arm, windows), windows)
