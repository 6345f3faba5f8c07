"""Trace a named bench workload: ``python -m repro.instrument``.

Runs one workload on a freshly wired :class:`~repro.host.platform.System`
with the event bus attached, then emits any of:

* ``--trace out.json`` — Chrome/Perfetto trace-event JSON over simulated
  time (one process per device / application / host, one track per channel,
  core, SSDlet);
* ``--metrics metrics.json`` — the system metrics registry snapshot
  (controller and cache counters, utilization series);
* ``--breakdown`` — the Table III-style read-latency decomposition printed
  to stdout.

Every byte written is deterministic: two runs of the same workload produce
identical files regardless of ``PYTHONHASHSEED`` (the CI smoke job and
``tests/instrument/test_cli.py`` hold it to that).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Tuple

from repro.bench.experiments import exp_table3_read_latency
from repro.host.platform import System
from repro.instrument.breakdown import read_latency_breakdown
from repro.instrument.events import traced_simulator
from repro.instrument.perfetto import write_chrome_trace
from repro.instrument.utilization import UtilizationMonitor
from repro.sim.units import MIB

__all__ = ["main", "WORKLOADS"]


def _run_string_search(system: System) -> Dict[str, float]:
    """Table V shape: Conv grep vs a matcher-driven Searcher pipeline."""
    from repro.apps.string_search import (
        install_weblog_analytic, run_biscuit_search, run_conv_search,
    )
    path = "/data/weblog.log"
    keyword = "Googlebot"
    install_weblog_analytic(system, path, 8 * MIB, keyword)
    with system.sim.scope("search/conv"):
        _conv_count, conv_s = run_conv_search(system, path, keyword)
    with system.sim.scope("search/biscuit"):
        _biscuit_count, biscuit_s = run_biscuit_search(system, path, keyword)
    return {"conv_s": conv_s, "biscuit_s": biscuit_s}


def _run_pointer_chase(system: System) -> Dict[str, float]:
    """Table IV shape: random walks over a node file, Conv vs Chaser SSDlet."""
    from repro.apps.pointer_chase import (
        build_exact_graph, run_biscuit, run_conv,
    )
    graph = build_exact_graph(system, "/data/graph.bin", num_nodes=256)
    with system.sim.scope("chase/conv"):
        _finals, conv_s = run_conv(system, graph, num_walks=8, hops=4)
    with system.sim.scope("chase/biscuit"):
        _finals, biscuit_s = run_biscuit(system, graph, num_walks=8, hops=4)
    return {"conv_s": conv_s, "biscuit_s": biscuit_s}


def _run_tpch(system: System) -> Dict[str, float]:
    """Fig. 10 shape: TPC-H Q6 and Q14, Conv vs Biscuit, one scope each.

    Q14 CONV alone is ~90 k events under one qid — the size at which a
    quadratic attribution pass stops finishing.
    """
    from repro.db.planner import ExecutionMode, create_engine
    from repro.db.tpch.datagen import load_tpch
    from repro.db.tpch.queries import run_query
    db = load_tpch(system.fs, 0.0015)   # the scale benchmarks/e2e runs Fig. 10 at
    summary = {}
    for number in (6, 14):
        for mode in (ExecutionMode.CONV, ExecutionMode.BISCUIT):
            label = "q%d-%s" % (number, mode.value)
            engine = create_engine(system, db, mode)
            with system.sim.scope("tpch/" + label):
                _rel, summary[label.replace("-", "_") + "_s"] = run_query(
                    engine, number)
    return summary


WORKLOADS: Dict[str, Tuple[Callable[[System], Dict[str, float]], str]] = {
    "string_search": (_run_string_search,
                      "web-log keyword search, Conv grep vs matcher SSDlets"),
    "read_latency": (lambda system: exp_table3_read_latency(
                         system=system).metrics,
                     "serial 4 KiB reads, host vs device-internal (Table III)"),
    "pointer_chase": (_run_pointer_chase,
                      "graph random walks, host vs Chaser SSDlet (Table IV)"),
    "tpch": (_run_tpch,
             "TPC-H Q6 and Q14, Conv vs Biscuit at SF 0.0015 (Fig. 10)"),
}


#: A critical path longer than twice this prints its first and last steps.
_PATH_EDGE_STEPS = 20


def attribute_main(argv) -> int:
    """The ``attribute`` subcommand: per-query tail-latency decomposition."""
    from repro.instrument.causal import (
        attribute_traces, critical_path, group_queries,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.instrument attribute",
        description="Run a workload traced and decompose every query's "
                    "latency into additive components (exact, ns-integer).",
    )
    parser.add_argument("--workload", default="read_latency",
                        choices=sorted(WORKLOADS) + ["serve_mix"],
                        help="workload to run (default: read_latency)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the attribution report as canonical JSON")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the slowest query's critical path")
    args = parser.parse_args(argv)

    if args.workload == "serve_mix":
        from repro.serve.mixes import run_mix
        result = run_mix("smoke", trace=True)
        bus = result.bus
    else:
        sim, bus = traced_simulator()
        system = System(sim=sim)
        runner, _description = WORKLOADS[args.workload]
        runner(system)

    traces = group_queries(bus.events)
    report = attribute_traces(traces)
    sys.stdout.write(report.render())
    if args.critical_path and traces:
        trace = max(traces, key=lambda t: (t.latency_ns, t.qid))
        path = critical_path(trace)
        print("\ncritical path of %s (%.1f us, %d steps):"
              % (trace.qid, trace.latency_ns / 1000.0, len(path)))
        lines = ["  %10d +%-8d %s/%s on %s"
                 % (step.ts_ns, step.dur_ns, step.cat, step.name, step.track)
                 for step in path]
        if len(lines) > 2 * _PATH_EDGE_STEPS:
            lines[_PATH_EDGE_STEPS:-_PATH_EDGE_STEPS] = [
                "  ... %d steps ..." % (len(lines) - 2 * _PATH_EDGE_STEPS)]
        print("\n".join(lines))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print("attribution written to %s" % args.json)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "attribute":
        return attribute_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro.instrument",
        description="Run a bench workload with stack-wide tracing enabled.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run")
    parser.add_argument("--trace", metavar="PATH",
                        help="write Chrome/Perfetto trace-event JSON here")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write the metrics-registry snapshot JSON here")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the read-latency breakdown report")
    parser.add_argument("--list", action="store_true",
                        help="list available workloads and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(WORKLOADS):
            print("%-14s %s" % (name, WORKLOADS[name][1]))
        return 0
    if args.workload is None:
        parser.error("--workload is required (or use --list)")

    sim, bus = traced_simulator()
    system = System(sim=sim)
    monitor = UtilizationMonitor.for_system(system, interval_s=0.001)
    monitor.start()
    runner, _description = WORKLOADS[args.workload]
    summary = runner(system)
    monitor.stop()

    for key in sorted(summary):
        print("%s %s=%.6g" % (args.workload, key, summary[key]))
    print("%s events=%d simulated_s=%.6g"
          % (args.workload, len(bus.events), system.now_s))

    if args.trace:
        write_chrome_trace(bus.events, args.trace)
        print("trace written to %s" % args.trace)
    if args.metrics:
        extra = {"workload": args.workload,
                 "simulated_s": system.now_s,
                 "events": len(bus.events)}
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(system.metrics.to_json(extra=extra))
        print("metrics written to %s" % args.metrics)
    if args.breakdown:
        print(read_latency_breakdown(bus.events).format())
    return 0


if __name__ == "__main__":
    sys.exit(main())
