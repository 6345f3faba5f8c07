"""Latency-breakdown report, cross-checked against the Table III goldens."""

import csv
import os

import pytest

from repro.host.platform import System
from repro.instrument.breakdown import COMPONENTS, read_latency_breakdown
from repro.instrument.events import EventBus, TraceEvent
from repro.sim.engine import Simulator, all_of
from repro.sim.units import MIB

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "benchmarks", "results",
    "table3_read_latency.csv")


def _golden_us():
    with open(GOLDEN) as handle:
        rows = {row["config"]: float(row["measured"])
                for row in csv.DictReader(handle)}
    return rows["Conv"], rows["Biscuit"]


def _traced_read_run(samples=32):
    """The Table III experiment shape with the event bus attached."""
    sim = Simulator()
    bus = EventBus(sim)
    system = System(sim=sim)
    system.fs.install_synthetic("/bench/latency.dat", 64 * MIB)

    def measure(handle):
        def program():
            for index in range(samples):
                yield from handle.read_timing_only(index * 4096, 4096)
        system.run_fiber(program())

    measure(system.open_host("/bench/latency.dat"))
    measure(system.open_internal("/bench/latency.dat"))
    return bus


# ------------------------------------------------------------ golden checks
def test_breakdown_totals_match_table3_goldens():
    conv_us, biscuit_us = _golden_us()
    report = read_latency_breakdown(_traced_read_run().events)
    assert report.host.count == 32
    assert report.internal.count == 32
    assert report.host.mean_total_us == pytest.approx(conv_us, rel=0.01)
    assert report.internal.mean_total_us == pytest.approx(biscuit_us, rel=0.01)


def test_breakdown_components_sum_to_total_for_serial_reads():
    """Serial 4 KiB reads have disjoint spans: busy sums are exact."""
    report = read_latency_breakdown(_traced_read_run(samples=8).events)
    for aggregate in (report.host, report.internal):
        for command in aggregate.commands:
            assert sum(command.components.values()) == command.dur_ns
            assert command.components["other"] >= 0


def test_host_path_pays_driver_and_transfer_internal_does_not():
    report = read_latency_breakdown(_traced_read_run(samples=8).events)
    host, internal = report.host.composition(), report.internal.composition()
    assert host["driver"] > 0 and host["transfer"] > 0
    assert internal["driver"] == 0 and internal["transfer"] == 0
    # Both paths touch the same firmware and media.
    assert internal["firmware"] == pytest.approx(host["firmware"], rel=0.01)
    assert internal["nand"] == pytest.approx(host["nand"], rel=0.01)


def test_report_format_lists_both_paths():
    text = read_latency_breakdown(_traced_read_run(samples=4).events).format()
    lines = text.splitlines()
    assert lines[0].split()[:3] == ["path", "cmds", "total"]
    assert any(line.lstrip().startswith("host") for line in lines)
    assert any(line.lstrip().startswith("internal") for line in lines)


def test_tracing_toggle_leaves_timing_goldens_intact():
    """Acceptance: event bus disabled ⇒ no change to Table III numbers."""
    def mean_read_us(sim=None):
        system = System(sim=sim) if sim is not None else System()
        system.fs.install_synthetic("/g", 64 * MIB)
        handle = system.open_host("/g")

        def program():
            total_ns = 0
            for index in range(16):
                start_ns = system.sim.now
                yield from handle.read_timing_only(index * 4096, 4096)
                total_ns += system.sim.now - start_ns
            return total_ns / 16 / 1e3

        return system.run_fiber(program())

    untraced_us = mean_read_us()
    sim = Simulator()
    EventBus(sim)
    assert mean_read_us(sim) == untraced_us
    conv_us, _ = _golden_us()
    assert untraced_us == pytest.approx(conv_us, rel=0.01)


# ------------------------------------------------------- synthetic envelopes
def test_internal_envelope_excludes_ctrl_spans_inside_host_commands():
    events = [
        TraceEvent(0, 100, "nvme", "read", "host/io0", None),
        TraceEvent(10, 50, "ctrl", "read", "ssd0/io", None),   # contained
        TraceEvent(200, 50, "ctrl", "read", "ssd0/io", None),  # standalone
    ]
    report = read_latency_breakdown(events)
    assert report.host.count == 1
    assert report.internal.count == 1
    assert report.internal.commands[0].start_ns == 200


def test_clipping_charges_only_the_overlap():
    events = [
        TraceEvent(0, 100, "nvme", "read", "host/io0", None),
        # NAND span hangs 40 ns past the envelope: only 60 ns counted.
        TraceEvent(40, 100, "nand", "read", "ssd0/ch0", None),
    ]
    (command,) = read_latency_breakdown(events).host.commands
    assert command.components["nand"] == 60


def test_long_span_that_started_far_before_the_envelope_is_found():
    """The span lookup is by bisection over start times; a span that began
    long before the command (behind many short ones) must still clip in."""
    events = [TraceEvent(0, 1050, "fw", "dispatch", "ssd0/core0", None)]
    events += [TraceEvent(ts, 5, "nand", "read", "ssd0/ch0", None)
               for ts in range(10, 900, 10)]
    events.append(TraceEvent(1000, 100, "nvme", "read", "host/io0", None))
    (command,) = read_latency_breakdown(events).host.commands
    assert command.components["firmware"] == 50
    assert command.components["nand"] == 0
    assert command.components["other"] == 50


def test_fabric_hops_not_double_counted_as_transfer():
    events = [
        TraceEvent(0, 100, "nvme", "read", "host/io0", None),
        TraceEvent(10, 20, "xfer", "d2h", "ssd0/pcie", None),
        TraceEvent(10, 20, "xfer", "fabric", "fabric/link", None),
    ]
    (command,) = read_latency_breakdown(events).host.commands
    assert command.components["transfer"] == 20


def test_components_tile_the_envelope_when_commands_overlap():
    """Concurrent commands: every envelope's columns still sum to its
    duration and ``other`` is never negative (busy sums charged each
    envelope with every concurrent command's spans)."""
    sim = Simulator()
    bus = EventBus(sim)
    system = System(sim=sim)
    system.fs.install_synthetic("/bench/overlap.dat", 8 * MIB)
    host = system.open_host("/bench/overlap.dat")
    internal = system.open_internal("/bench/overlap.dat")

    def program():
        # One path at a time: an internal read that runs inside a host
        # command's time span is taken for that command's own ctrl/read.
        for handle in (host, internal):
            yield all_of(sim, [handle.aread_timing_only(index * MIB, 256 * 1024)
                               for index in range(3)])

    system.run_fiber(program())
    report = read_latency_breakdown(bus.events)
    assert report.host.count == 3 and report.internal.count == 3
    for command in report.host.commands + report.internal.commands:
        assert tuple(command.components) == COMPONENTS
        assert sum(command.components.values()) == command.dur_ns
        assert min(command.components.values()) >= 0
    # Striped over 16 channels, NAND time is busy somewhere for most of
    # every command, yet never for longer than the command itself.
    assert all(0 < command.components["nand"] <= command.dur_ns
               for command in report.internal.commands)
