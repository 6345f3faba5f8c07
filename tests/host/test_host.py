"""Host model: contention curve, I/O latency, platform wiring."""

import pytest

from repro.host.cpu import HostCPU
from repro.host.platform import System
from repro.sim.engine import Simulator


# --------------------------------------------------------------- contention
def test_contention_factor_at_zero_load():
    cpu = HostCPU(Simulator())
    assert cpu.contention_factor() == 1.0


@pytest.mark.parametrize("threads,expected", [
    (6, 14.8 / 12.2), (12, 16.3 / 12.2), (18, 18.8 / 12.2), (24, 19.9 / 12.2),
])
def test_contention_curve_matches_table5_fit(threads, expected):
    """The (a, b) fit reproduces the paper's Table V Conv ratios within 5%."""
    cpu = HostCPU(Simulator())
    cpu.set_background_load(threads)
    assert abs(cpu.contention_factor() - expected) / expected < 0.05


def test_contention_monotone():
    cpu = HostCPU(Simulator())
    factors = []
    for threads in (0, 4, 8, 16, 32, 64):
        cpu.set_background_load(threads)
        factors.append(cpu.contention_factor())
    assert factors == sorted(factors)
    assert factors[-1] < 3.0  # saturating, not unbounded


def test_negative_load_rejected():
    with pytest.raises(ValueError):
        HostCPU(Simulator()).set_background_load(-1)


def test_memory_bound_work_stretches_under_load():
    sim = Simulator()
    cpu = HostCPU(sim)
    sim.run(sim.process(cpu.occupy(100.0)))
    unloaded = sim.now
    cpu.set_background_load(24)
    start = sim.now
    sim.run(sim.process(cpu.occupy(100.0)))
    loaded = sim.now - start
    assert loaded > 1.5 * unloaded


def test_cache_resident_work_unaffected_by_load():
    sim = Simulator()
    cpu = HostCPU(sim)
    cpu.set_background_load(24)
    sim.run(sim.process(cpu.occupy(100.0, memory_bound=False)))
    assert sim.now == 100_000  # exactly 100 us


def test_scan_rate_matches_table5():
    sim = Simulator()
    cpu = HostCPU(sim)
    size = 68_000_000  # 1/10 of a second at 680 MB/s
    sim.run(sim.process(cpu.scan(size)))
    assert abs(sim.now_s - 0.1) < 0.001


# --------------------------------------------------------------------- I/O
def test_pread_4k_latency_is_paper_90us():
    system = System()
    system.fs.install_synthetic("/d", 1 << 20)
    handle = system.open_host("/d")
    system.run_fiber(handle.read_timing_only(0, 4096))
    assert abs(system.sim.now_us - 90.0) < 1.0  # Table III Conv


def test_pread_latency_inflates_under_load():
    baseline = System()
    baseline.fs.install_synthetic("/d", 1 << 20)
    baseline.run_fiber(baseline.open_host("/d").read_timing_only(0, 4096))

    loaded = System(background_threads=24)
    loaded.fs.install_synthetic("/d", 1 << 20)
    loaded.run_fiber(loaded.open_host("/d").read_timing_only(0, 4096))
    inflation = loaded.sim.now / baseline.sim.now
    # Table IV implies ~12% per-read inflation at 24 threads.
    assert 1.05 < inflation < 1.2


def test_pread_behind_a_fabric_counts_once_and_costs_one_hop():
    def read_one_page(**fabric):
        system = System(**fabric)
        system.fs.install_synthetic("/d", 1 << 20)
        pages = system.run_fiber(system.open_host("/d").read_timing_only(0, 4096))
        return system, pages

    direct, _ = read_one_page()
    switched, pages = read_one_page(
        fabric_bytes_per_sec=direct.config.pcie_bytes_per_sec)
    interface = switched.device.interface
    assert pages == 1
    assert interface.commands == 1
    assert interface.bytes_to_host == 4096
    assert switched.fabric.bytes_moved == 4096
    # Cut-through: an equal-rate switch hop overlaps the device link's.
    assert switched.sim.now == direct.sim.now


def test_internal_read_immune_to_load():
    system = System(background_threads=24)
    system.fs.install_synthetic("/d", 1 << 20)
    system.run_fiber(system.open_internal("/d").read_timing_only(0, 4096))
    assert abs(system.sim.now_us - 75.9) < 1.0


def test_apread_overlaps():
    system = System()
    system.fs.install_synthetic("/d", 64 << 20)

    def program():
        events = [system.io.apread_pages(list(range(i * 256, (i + 1) * 256)))
                  for i in range(4)]
        from repro.sim.engine import all_of
        yield all_of(system.sim, events)

    system.run_fiber(program())
    sequential_estimate = 4 * 256 * 90e-6
    assert system.sim.now_s < sequential_estimate


# ----------------------------------------------------------------- platform
def test_platform_wiring():
    system = System()
    assert system.device.sim is system.sim
    assert system.fs.device is system.device
    assert system.io.cpu is system.cpu


def test_run_fiber_returns_value():
    system = System()

    def fiber():
        yield system.sim.timeout(5)
        return "ok"

    assert system.run_fiber(fiber()) == "ok"
    assert system.now_s == 5e-9
