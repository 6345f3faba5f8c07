"""Device-DRAM read cache: LRU replacement, device timing, coherence.

The coherence tests enforce the contract documented in repro.ssd.cache: a
remapped LPN, a reprogrammed physical page, or an erased block must never be
served from a stale line — including across GC relocation.
"""

import pytest

from repro.sim.engine import Simulator
from repro.ssd.cache import DeviceReadCache
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice
from repro.testing.faults import FaultInjector, FaultPlan

PHYS = 16384  # default physical page (cache line) size


def make_cache(lines=4, **overrides):
    return DeviceReadCache(SSDConfig(read_cache_bytes=lines * PHYS, **overrides))


def make_device(**overrides):
    sim = Simulator()
    return sim, SSDDevice(sim, SSDConfig(**overrides))


def run(sim, fiber):
    start = sim.now
    sim.run(sim.process(fiber))
    return (sim.now - start) / 1e3  # microseconds


def cache_is_coherent(device):
    """Every cached line must agree with the controller's current placement."""
    cache = device.cache
    for lpn, key in cache._by_lpn.items():
        if device.controller.placement(lpn) != key:
            return False
    for key, line in cache._lines.items():
        for lpn in line:
            if device.controller.placement(lpn) != key:
                return False
    return True


# ---------------------------------------------------------------------- LRU
def test_cache_disabled_by_default():
    cache = DeviceReadCache(SSDConfig())
    assert not cache.enabled
    assert not cache.lookup(0, 0)
    assert cache.stats.lookups == 0  # a disabled cache counts nothing
    cache.insert(0, 0, [0])
    assert len(cache) == 0


def test_lru_hit_refreshes_recency():
    cache = make_cache(lines=2)
    cache.insert(0, 0, [0])
    cache.insert(0, 1, [4])
    assert cache.lookup(0, 0)  # refresh line (0, 0)
    cache.insert(0, 2, [8])  # evicts (0, 1), the least recent
    assert (0, 0) in cache
    assert (0, 1) not in cache
    assert cache.stats.evictions == 1


def test_lru_capacity_is_line_count():
    cache = make_cache(lines=3)
    for physical in range(5):
        cache.insert(0, physical, [physical * 4])
    assert len(cache) == 3
    assert cache.stats.evictions == 2


def test_lru_sweep_does_evict_everything():
    cache = make_cache(lines=4)
    cache.insert(0, 0, [0])
    cache.lookup(0, 0)
    for physical in range(100, 140):
        cache.insert(0, physical, [physical * 4])
    # A recently hit line does not survive a sweep of inserts: scans must
    # bypass the cache (see the matcher-scan case below) to keep it.
    assert not cache.lookup(0, 0)


def test_invalidate_lpn_drops_slot_then_line():
    cache = make_cache()
    cache.insert(0, 7, [28, 29])
    cache.invalidate_lpn(28)
    assert (0, 7) in cache  # 29 is still valid
    assert cache.resident_lpns((0, 7)) == {29}
    cache.invalidate_lpn(29)
    assert (0, 7) not in cache
    assert cache.stats.invalidations == 2


def test_invalidate_physical_range_covers_block():
    cache = make_cache(lines=8)
    for physical in range(4):
        cache.insert(1, physical, [physical])
    cache.insert(2, 0, [1000])
    cache.invalidate_physical_range(1, 0, 4)
    assert len(cache) == 1  # only the channel-2 line survives
    assert (2, 0) in cache


def test_insert_merges_lpns_into_resident_line():
    cache = make_cache()
    cache.insert(0, 3, [12])
    cache.insert(0, 3, [13])
    assert cache.resident_lpns((0, 3)) == {12, 13}
    assert cache.stats.insertions == 1  # the second insert was a merge


# ------------------------------------------------------------ device timing
def test_second_read_served_from_dram():
    sim, device = make_device(read_cache_bytes=64 * PHYS)
    cold = run(sim, device.internal_read([0]))
    hot = run(sim, device.internal_read([0]))
    assert cold > 70.0  # Table III calibration unchanged by the cache
    assert hot < cold / 4
    assert device.cache.stats.hits == 1
    assert device.cache.stats.hit_rate == 0.5


def test_write_invalidates_cached_line():
    sim, device = make_device(read_cache_bytes=64 * PHYS)
    run(sim, device.internal_read([5]))
    nand_reads = sum(ch.reads for ch in device.nand.channels)
    run(sim, device.internal_write([5]))
    assert device.cache.stats.invalidations >= 1
    relearn = run(sim, device.internal_read([5]))
    assert sum(ch.reads for ch in device.nand.channels) == nand_reads + 1
    assert relearn > 70.0  # the stale line did not serve the remapped page


def test_matcher_scan_bypasses_and_preserves_hot_set():
    sim, device = make_device(read_cache_bytes=4 * PHYS)
    run(sim, device.internal_read([0]))
    run(sim, device.internal_read([0]))  # line is now hot
    run(sim, device.internal_read(list(range(256)), use_matcher=True))
    assert device.cache.stats.bypasses > 0
    assert len(device.cache) == 1  # the scan cached nothing
    hits = device.cache.stats.hits
    run(sim, device.internal_read([0]))
    assert device.cache.stats.hits == hits + 1


def test_cache_bypass_flag_streams_past_cache():
    sim, device = make_device(read_cache_bytes=64 * PHYS)
    run(sim, device.internal_read([0], cache_bypass=True))
    run(sim, device.internal_read([0], cache_bypass=True))
    assert len(device.cache) == 0
    assert device.cache.stats.bypasses == 2
    assert device.cache.stats.hits == 0


def test_utilization_monitor_reports_cache():
    from repro.host.platform import System
    system = System(ssd_config=SSDConfig(read_cache_bytes=64 * PHYS))
    sim = system.sim
    from repro.instrument.utilization import UtilizationMonitor
    monitor = UtilizationMonitor.for_system(system, interval_s=0.0001)
    monitor.start()

    def workload():
        for _ in range(8):
            yield from system.devices[0].internal_read([0])

    sim.run(sim.process(workload()))
    monitor.stop()
    assert "read-cache" in monitor.series
    assert monitor.peak("read-cache") > 0.0
    assert "read-cache" in monitor.report()


# -------------------------------------------------------------- coherence
def small_geometry(**overrides):
    """A geometry tiny enough that a modest overwrite workload forces GC."""
    return dict(
        channels=2, dies_per_channel=1, pages_per_block=4, blocks_per_die=4,
        read_cache_bytes=8 * PHYS, **overrides,
    )


def test_gc_relocation_invalidates_and_stays_coherent():
    sim, device = make_device(**small_geometry())
    lpns = list(range(24))

    def churn():
        yield from device.controller.write_pages(lpns)
        for round_no in range(6):
            yield from device.internal_read(lpns)  # populate the cache
            yield from device.controller.write_pages(lpns)  # remap everything

    run(sim, churn())
    assert device.ftl.gc_runs > 0, "workload failed to trigger GC"
    assert device.cache.stats.invalidations > 0
    assert cache_is_coherent(device)
    # Re-reads of relocated pages must sense NAND again, not hit stale lines.
    nand_reads = sum(ch.reads for ch in device.nand.channels)
    hits = device.cache.stats.hits
    run(sim, device.internal_read(lpns))
    assert device.cache.stats.hits == hits
    assert sum(ch.reads for ch in device.nand.channels) > nand_reads


def test_gc_heavy_content_survives_with_cache():
    sim, device = make_device(**small_geometry())
    lpns = list(range(24))
    for lpn in lpns:
        device.store_page(lpn, b"v%d" % lpn)

    def churn():
        for round_no in range(8):
            yield from device.controller.write_pages(lpns)
            yield from device.internal_read(lpns)

    run(sim, churn())
    assert device.ftl.gc_runs > 0
    for lpn in lpns:
        assert device.load_page(lpn).startswith(b"v%d" % lpn)
    assert cache_is_coherent(device)


# ---------------------------------------------------------- fault injection
def test_cached_and_uncached_reads_agree_under_faults():
    """Same workload, same fault plan, cache on vs off: same values, and the
    cached run's recovered/retried reads never corrupt the line."""
    plan = FaultPlan(seed=9, ecc_rate=0.3)
    pages = list(range(32))
    loaded = {}
    for cache_bytes in (0, 64 * PHYS):
        sim, device = make_device(read_retry_limit=4,
                                  read_cache_bytes=cache_bytes)
        for lpn in pages:
            device.store_page(lpn, b"p%d" % lpn)
        device.attach_fault_injector(FaultInjector(plan))

        def workload():
            yield from device.internal_read(pages)
            yield from device.internal_read(pages)

        run(sim, workload())
        assert device.controller.stats.read_retries > 0
        loaded[cache_bytes] = [device.load_page(lpn) for lpn in pages]
        if cache_bytes:
            assert device.cache.stats.hits > 0
            assert cache_is_coherent(device)
    assert loaded[0] == loaded[64 * PHYS]


def test_failed_read_does_not_insert_line():
    sim, device = make_device(read_cache_bytes=64 * PHYS, read_retry_limit=1)
    device.attach_fault_injector(FaultInjector(FaultPlan(seed=5, ecc_rate=1.0)))
    from repro.core.errors import UncorrectableReadError
    with pytest.raises(UncorrectableReadError):
        run(sim, device.internal_read([0]))
    assert len(device.cache) == 0  # only successful senses fill lines
