"""The simulator event-count benchmark: fused fast path on vs off.

Three workload shapes drive ``Controller.read_pages`` with the fused NAND
fast path (:mod:`repro.sim.fastpath`) enabled and disabled:

* **point** — a stream of single-page reads (index-probe shape,
  dispatch-bound; one-page commands never fuse, so both arms step the same
  events),
* **striped** — mid-size commands striped across every channel,
* **saturation** — parallel workers issuing large contiguous scans with a
  deep coalesce limit, the shape that saturates every channel bus (the
  paper's Fig. 7 regime) and where event fusion pays off most.

For every shape the two arms must land on the *same* final simulated time
and byte counts — the run aborts otherwise — so the benchmark doubles as a
determinism check.  Every number in
``benchmarks/results/sim_throughput.metrics.json`` (event counts, fusion
counters, simulated time; one ``<shape>_<field>`` key each) is simulated,
hence byte-identical across hosts and ``PYTHONHASHSEED`` values.  What the
fused path buys in host wall-clock time is measured by ``benchmarks/e2e``
(``dev_scan`` and ``dev_point`` run these shapes against a yardstick), not
here.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple

from repro.bench.harness import ExperimentResult
from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice

__all__ = ["exp_sim_throughput", "run_throughput_bench"]


class Shape(NamedTuple):
    """One workload shape: ``workers`` fibers each issuing ``commands``
    reads of ``pages`` contiguous logical pages."""

    pages: int
    commands: int
    workers: int
    coalesce_limit: int


SHAPES: Dict[str, Shape] = {
    "point": Shape(pages=1, commands=192, workers=2, coalesce_limit=8),
    "striped": Shape(pages=256, commands=8, workers=2, coalesce_limit=8),
    "saturation": Shape(pages=2048, commands=6, workers=4, coalesce_limit=32),
}


def _run_arm(shape: Shape, fast: bool) -> Dict[str, Any]:
    """One arm of one shape, run to completion."""
    config = SSDConfig(read_coalesce_limit=shape.coalesce_limit,
                      sim_fast_path=fast)
    sim = Simulator()
    device = SSDDevice(sim, config)

    def worker(base_lpn: int):
        for i in range(shape.commands):
            start = base_lpn + i * shape.pages
            yield from device.controller.read_pages(
                range(start, start + shape.pages))

    stride = shape.commands * shape.pages
    for w in range(shape.workers):
        sim.process(worker(w * stride), name="worker%d" % w)  # repro: noqa RPR006 -- fire-and-forget driver; sim.run() drains it

    sim.run()

    fused_batches = fused_pages = cache_hits = cache_misses = 0
    for channel in device.nand.channels:
        counters = channel.fastpath.counters()
        fused_batches += counters["fused_batches"]
        fused_pages += counters["fused_pages"]
        cache_hits += counters["timing_cache_hits"]
        cache_misses += counters["timing_cache_misses"]
    return {
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
        "bytes_read": device.nand.bytes_read,
        "fused_commands": device.controller.stats.fused_commands,
        "fused_batches": fused_batches,
        "fused_pages": fused_pages,
        "timing_cache_hits": cache_hits,
        "timing_cache_misses": cache_misses,
    }


def run_throughput_bench(
        shapes: Dict[str, Shape] = SHAPES) -> Dict[str, Any]:
    """Run every shape fast-on and fast-off; return the report.

    Raises ``AssertionError`` if any shape's arms diverge in simulated time
    or bytes — the fast path's contract is bit-identical timing, and an
    event count for a wrong simulation is worthless.
    """
    report: Dict[str, Any] = {"shapes": {}}
    for name in sorted(shapes):
        shape = shapes[name]
        fast = _run_arm(shape, fast=True)
        slow = _run_arm(shape, fast=False)
        assert fast["sim_now_ns"] == slow["sim_now_ns"], (
            "fast path diverged on %r: now %d != %d"
            % (name, fast["sim_now_ns"], slow["sim_now_ns"]))
        assert fast["bytes_read"] == slow["bytes_read"], (
            "fast path diverged on %r: bytes %d != %d"
            % (name, fast["bytes_read"], slow["bytes_read"]))
        report["shapes"][name] = {
            "pages_per_command": shape.pages,
            "commands": shape.commands * shape.workers,
            "coalesce_limit": shape.coalesce_limit,
            "sim_now_ns": fast["sim_now_ns"],
            "bytes_read": fast["bytes_read"],
            "events_fast": fast["events"],
            "events_slow": slow["events"],
            "event_reduction": round(slow["events"] / fast["events"], 2),
            "fused_commands": fast["fused_commands"],
            "fused_batches": fast["fused_batches"],
            "fused_pages": fast["fused_pages"],
            "timing_cache_hits": fast["timing_cache_hits"],
            "timing_cache_misses": fast["timing_cache_misses"],
        }
    return report


def exp_sim_throughput() -> ExperimentResult:
    """The ``python -m repro.bench sim_throughput`` entry point."""
    report = run_throughput_bench()
    headers = ["shape", "events off", "events on", "reduction", "fused pages"]
    rows = []
    for name in sorted(report["shapes"]):
        shape = report["shapes"][name]
        rows.append([
            name, shape["events_slow"], shape["events_fast"],
            "%.1fx" % shape["event_reduction"], shape["fused_pages"],
        ])
    reduction = report["shapes"]["saturation"]["event_reduction"]
    metrics = {"%s_%s" % (name, key): float(value)
               for name, shape in report["shapes"].items()
               for key, value in shape.items()}
    notes = [
        "both arms of every shape verified bit-identical (same final "
        "sim.now, same bytes) before the counts were reported",
        "wall-clock cost per event is benchmarks/e2e's dev_scan/dev_point",
    ]
    if reduction < 10.0:
        notes.insert(0, "BELOW TARGET: saturation event reduction %.1fx < 10x"
                     % reduction)
    return ExperimentResult(
        experiment="SimThroughput",
        title="Simulator events: fused fast path on vs off",
        headers=headers,
        rows=rows,
        metrics=metrics,
        notes=notes,
    )
