"""Utilization monitor."""

import pytest

from repro.instrument import UtilizationMonitor
from repro.sim.units import MIB, s_to_ns


# -------------------------------------------------------------- utilization
def test_monitor_tracks_busy_resource(system):
    monitor = UtilizationMonitor(system.sim, interval_s=0.001)
    monitor.watch("host", [system.cpu.cores])
    monitor.start()

    def burn():
        yield from system.cpu.occupy(20_000.0, memory_bound=False)  # 20 ms

    system.run_fiber(burn())
    system.sim.run(until=system.sim.now + s_to_ns(0.01))
    monitor.stop()
    assert monitor.peak("host") > 0.9 / system.cpu.cores.capacity
    assert monitor.mean("host") > 0.0


def test_monitor_for_system_groups(system):
    monitor = UtilizationMonitor.for_system(system, interval_s=0.001)
    assert set(monitor.series) == {"host-cores", "ssd-channels", "device-cores", "pcie"}


def test_monitor_sees_ssd_activity(system):
    system.fs.install_synthetic("/d", 64 * MIB)
    handle = system.open_internal("/d")
    monitor = UtilizationMonitor.for_system(system, interval_s=0.0005)
    monitor.start()

    def stream():
        for i in range(8):
            yield from handle.read_timing_only(i * 4 * MIB, 4 * MIB)

    system.run_fiber(stream())
    monitor.stop()
    assert monitor.peak("ssd-channels") > 0.5
    assert monitor.peak("pcie") == 0.0  # internal reads never cross PCIe


def test_monitor_report_and_sparkline(system):
    monitor = UtilizationMonitor(system.sim, interval_s=0.001)
    monitor.watch("host", [system.cpu.cores])
    monitor.start()
    system.sim.run(until=s_to_ns(0.02))
    monitor.stop()
    report = monitor.report(width=10)
    assert "host" in report and "mean" in report
    assert len(monitor.sparkline("host", width=10)) == 10


def test_monitor_cannot_watch_while_running(system):
    monitor = UtilizationMonitor(system.sim)
    monitor.watch("a", [system.cpu.cores])
    monitor.start()
    with pytest.raises(RuntimeError):
        monitor.watch("b", [system.cpu.cores])
    monitor.stop()
