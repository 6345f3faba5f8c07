"""The shipped engine under the interleaving sanitizer (golden workloads).

Acceptance gate for :mod:`repro.analysis.races`: the golden-trace
workloads must run with *zero* footprint conflicts between tied events,
and replaying them with reversed tie-breaking inside every provably
order-free batch must reproduce a bit-identical trace digest and result —
with the fused fast path configured on and off.
"""

import pytest

from repro.analysis.races import (
    _golden_workloads, check_workload, main as races_main,
)
from repro.bench.experiments import (
    exp_fig7_read_bandwidth,
    exp_table3_read_latency,
)
from repro.host.platform import System
from repro.sim.units import KIB, MIB
from repro.ssd.config import SSDConfig


def test_table3_conflict_free_and_bit_identical():
    report = check_workload(lambda: exp_table3_read_latency(samples=8))
    assert report.hazards == []
    assert report.digests_match and report.results_match
    assert report.batches > 0


def test_fig7_conflict_free_and_bit_identical_under_reversal():
    report = check_workload(lambda: exp_fig7_read_bandwidth(
        sizes=[64 * KIB], sweep_bytes=8 * MIB))
    assert report.hazards == []
    assert report.digests_match and report.results_match
    # The fan-out workload must give the perturbation real bite: hundreds
    # of multi-entry batches are provably order-free and get reversed.
    assert report.reversed_batches > 100


def test_gc_write_path_conflict_free_and_bit_identical_under_reversal():
    """The write path under the sanitizer: host appends and GC relocations
    through the FTL, one writer at the GC ablation's 0.85 live fraction."""
    report = check_workload(_golden_workloads()["gc"])
    assert report.hazards == []
    assert report.digests_match and report.results_match
    _waf, gc_runs, relocated = report.result
    assert gc_runs > 0 and relocated > 0
    assert report.reversed_batches > 0


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "slow"])
def test_internal_read_sweep_clean_with_fastpath_on_and_off(fast_path):
    """Same device workload with SSDConfig.sim_fast_path toggled: both
    configurations must be conflict-free and survive reversed ties.  (Under
    the monitor fused plans de-gate to per-event stepping — like traced
    runs — so both arms also exercise the same dispatch path.)"""

    def workload():
        config = SSDConfig(sim_fast_path=fast_path)
        system = System(ssd_config=config)
        system.fs.install_synthetic("/race/sweep.dat", 8 * MIB)
        handle = system.open_internal("/race/sweep.dat")

        def program():
            total = 0
            for index in range(16):
                rows = yield from handle.read_timing_only(
                    index * 256 * KIB, 256 * KIB)
                total += 1
            return (total, system.sim.now)

        return system.run_fiber(program())

    report = check_workload(workload)
    assert report.hazards == []
    assert report.digests_match and report.results_match
    assert report.clean


def test_race_check_config_knob_builds_a_monitored_world():
    system = System(ssd_config=SSDConfig(race_check=True))
    assert system.sim.race is not None
    assert System(ssd_config=SSDConfig()).sim.race is None


def test_races_cli_reports_clean_on_golden_workload(capsys):
    assert races_main(["--workload", "table3"]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out
    assert "digests identical" in out
