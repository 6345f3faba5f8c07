"""Ablation: device-DRAM read cache — hot reads win, streaming scans don't pay.

Two workloads against the same device, cache off vs on:

* **pointer chase** — dependent single-page reads over a working set that
  fits in the cache (the Table IV access pattern).  Every revisit is a DRAM
  hit instead of tR + channel bus, so the chase must speed up at least 2x.
* **streaming scan** — a matcher-engaged sweep (the Fig. 7/8 pattern).  The
  scan auto-bypasses the cache, so its time must be identical with the cache
  on or off — turning the cache on cannot perturb the paper's calibrated
  scan numbers.
"""

from repro.bench.harness import ExperimentResult, save_result
from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice

CACHE_BYTES = 64 * 16384  # 1 MiB of the 1 GiB controller DRAM (Table I)
WORKING_SET_PAGES = 192  # logical pages: 48 lines, well inside the cache
CHASE_ROUNDS = 8
SCAN_PAGES = 4096  # a 16 MiB sweep


def _make_device(cache_bytes):
    sim = Simulator()
    device = SSDDevice(sim, SSDConfig(read_cache_bytes=cache_bytes))
    return sim, device


def _run_chase(cache_bytes):
    sim, device = _make_device(cache_bytes)
    # A fixed pseudo-random walk: each hop depends on the previous page, so
    # the reads serialize exactly like index traversal does.
    hops = []
    lpn = 0
    for _ in range(CHASE_ROUNDS * WORKING_SET_PAGES // 4):
        hops.append(lpn)
        lpn = (lpn * 29 + 13) % WORKING_SET_PAGES

    def chase():
        for hop in hops:
            yield from device.internal_read([hop])

    sim.run(sim.process(chase()))
    return sim.now_s, device


def _run_scan(cache_bytes):
    sim, device = _make_device(cache_bytes)
    sim.run(sim.process(
        device.internal_read(list(range(SCAN_PAGES)), use_matcher=True)))
    return sim.now_s, device


def run_ablation():
    chase_off_s, _ = _run_chase(0)
    chase_on_s, chase_device = _run_chase(CACHE_BYTES)
    scan_off_s, _ = _run_scan(0)
    scan_on_s, scan_device = _run_scan(CACHE_BYTES)
    return ExperimentResult(
        "Ablation",
        "Device-DRAM read cache (%d KiB): pointer chase vs streaming scan"
        % (CACHE_BYTES // 1024),
        ["workload", "cache off (ms)", "cache on (ms)", "speedup"],
        [
            ["pointer chase", round(chase_off_s * 1e3, 3),
             round(chase_on_s * 1e3, 3),
             round(chase_off_s / chase_on_s, 2)],
            ["streaming scan (bypass)", round(scan_off_s * 1e3, 3),
             round(scan_on_s * 1e3, 3),
             round(scan_off_s / scan_on_s, 2)],
        ],
        metrics={
            "chase_off_s": chase_off_s,
            "chase_on_s": chase_on_s,
            "chase_speedup": chase_off_s / chase_on_s,
            "chase_hit_rate": chase_device.cache.stats.hit_rate,
            "scan_off_s": scan_off_s,
            "scan_on_s": scan_on_s,
            "scan_bypasses": float(scan_device.cache.stats.bypasses),
        },
    )


def test_ablation_read_cache(once):
    result = once(run_ablation)
    print()
    print(result.format())
    save_result(result, "ablation_read_cache")
    m = result.metrics
    # The tentpole's acceptance bar: hot dependent reads gain at least 2x.
    assert m["chase_speedup"] >= 2.0
    assert m["chase_hit_rate"] > 0.8
    # Scan bypass engaged: enabling the cache must not move scan time at all.
    assert m["scan_on_s"] == m["scan_off_s"]
    assert m["scan_bypasses"] > 0
