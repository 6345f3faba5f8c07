#!/usr/bin/env python3
"""Instrumentation: see *why* NDP wins, not just that it does.

Runs the same scan twice — Conv and Biscuit — with a utilization monitor
attached, then prints the timelines.  Conv's run shows
busy host cores and a busy PCIe link; Biscuit's run shows saturated flash
channels, busy device cores, and a silent PCIe link.

Run:  python examples/instrumented_run.py
"""

from repro.apps.string_search import (
    install_weblog_analytic,
    biscuit_string_search,
    conv_string_search,
)
from repro.host.platform import System
from repro.instrument import UtilizationMonitor
from repro.sim.units import MIB


def run_with_monitor(label, make_fiber):
    system = System()
    install_weblog_analytic(system, "/logs/web.log", 128 * MIB, "KEY", 0.02)
    monitor = UtilizationMonitor.for_system(system, interval_s=0.002)
    monitor.start()
    start_ns = system.sim.now
    system.run_fiber(make_fiber(system))
    elapsed_ms = (system.sim.now - start_ns) / 1e6
    monitor.stop()
    print("\n=== %s: %.1f ms over a 128 MiB log ===" % (label, elapsed_ms))
    print(monitor.report(width=48))
    return elapsed_ms


def main():
    conv_ms = run_with_monitor(
        "Conv (host grep)",
        lambda system: conv_string_search(system, "/logs/web.log", "KEY"),
    )
    biscuit_ms = run_with_monitor(
        "Biscuit (matcher IP)",
        lambda system: biscuit_string_search(system, "/logs/web.log", "KEY"),
    )
    print("\nspeed-up: %.1fx — and the timelines show where each run "
          "spent its time." % (conv_ms / biscuit_ms))


if __name__ == "__main__":
    main()
