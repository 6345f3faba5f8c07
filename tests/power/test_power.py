"""Power meter: sampling, utilization windows, energy integration."""

from repro.bench.experiments import exp_fig9_power
from repro.power.model import HOST_CORE_W, IDLE_W, PowerMeter
from repro.sim.units import MIB, s_to_ns
from repro.ssd.config import SSDConfig


def test_idle_system_draws_idle_power(system):
    meter = PowerMeter(system, interval_s=0.01)
    meter.start()
    system.sim.run(until=s_to_ns(0.1))
    meter.stop()
    assert meter.series
    for _, watts in meter.series:
        assert abs(watts - IDLE_W) < 0.01


def test_host_work_raises_power(system):
    meter = PowerMeter(system, interval_s=0.01)
    meter.start()

    def burn():
        for _ in range(10):
            yield from system.cpu.occupy(10_000.0, memory_bound=False)

    system.run_fiber(burn())
    meter.stop()
    peak = max(watts for _, watts in meter.series)
    assert abs(peak - (IDLE_W + HOST_CORE_W)) < 1.0


def test_ssd_activity_raises_power(system):
    system.fs.install_synthetic("/d", 64 * MIB)
    handle = system.open_internal("/d")
    meter = PowerMeter(system, interval_s=0.001)
    meter.start()

    def stream():
        for i in range(16):
            yield from handle.read_timing_only(i * 4 * MIB, 4 * MIB)

    system.run_fiber(stream())
    meter.stop()
    peak = max(watts for _, watts in meter.series)
    assert peak > IDLE_W + 10


def test_average_window(system):
    meter = PowerMeter(system, interval_s=0.01)
    meter.start()
    system.sim.run(until=s_to_ns(0.05))
    meter.stop()
    assert abs(meter.average_w() - IDLE_W) < 0.01
    assert meter.average_w(10.0, 20.0) == IDLE_W  # empty window


def test_energy_integrates_power(system):
    meter = PowerMeter(system, interval_s=0.01)
    meter.start()
    system.sim.run(until=s_to_ns(1.0))
    meter.stop()
    # Idle for 1 s at 103 W = 0.103 kJ.
    assert abs(meter.energy_kj() - 0.103) < 0.002


def test_meter_restart_is_safe(system):
    meter = PowerMeter(system)
    meter.start()
    meter.start()
    system.sim.run(until=s_to_ns(0.5))
    meter.stop()
    meter.stop()


def test_fig9_series_are_the_same_with_the_fast_path_on_and_off():
    # A fused plan books its die and bus time when it settles, but the
    # meter samples mid-plan: busy_area() must read the plan's share so far
    # off its schedule, or the 2 ms windows around it shift.
    fast = exp_fig9_power(0.01, SSDConfig(sim_fast_path=True))
    slow = exp_fig9_power(0.01, SSDConfig(sim_fast_path=False))
    assert fast.power_series == slow.power_series
    assert fast.metrics == slow.metrics
