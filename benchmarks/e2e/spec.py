"""The benchmark's names, read from ``BENCHMARK.json`` (the one source).

``BENCHMARK.json`` fixes every workload and metric name, unit, direction
and regression bound; this module only loads it and adds the one fact the
contract's schema has no key for: which metrics must repeat exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

__all__ = ["ROOT", "Contract", "is_exact", "load_contract"]

#: Repository (or checkout) root: benchmarks/e2e/spec.py -> two levels up.
ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics measured on the host clock or the host heap, and the
#: hit rate of the simulator's own timing memo (it warms from repetition to
#: repetition).  Every other per-layer metric is a count or a simulated
#: value and must repeat exactly for one (commit, workload, seed).
_HOST_MEASURED = frozenset({
    "setup.gc_objects", "setup.rss_mb", "sim.wall_us_per_event",
    "ssd.timing_cache_hit_frac", "instrument.trace_wall_ratio",
    "trace.overhead_frac", "trace.samples",
})

#: End-to-end metrics that are simulated, hence exact at a fixed seed.
_EXACT_END_TO_END = frozenset({"sim_elapsed_s"})


def is_exact(name: str) -> bool:
    """True when the metric must be bit-identical across runs of one seed."""
    if name in _EXACT_END_TO_END:
        return True
    if "." not in name:  # the other end-to-end metrics are host-measured
        return False
    return not (name.endswith("_s") or name in _HOST_MEASURED)


class Contract:
    """``BENCHMARK.json`` with name-keyed lookups."""

    def __init__(self, raw: Dict[str, Any]):
        self.raw = raw
        self.run_seconds: int = raw["run_seconds"]
        self.workloads: List[str] = [w["name"] for w in raw["workloads"]]
        self.end_to_end: Dict[str, Dict[str, Any]] = {
            m["name"]: m for m in raw["end_to_end"]}
        self.per_layer: Dict[str, Dict[str, Any]] = {
            m["name"]: m for m in raw["per_layer"]}


def load_contract() -> Contract:
    with open(ROOT / "BENCHMARK.json") as handle:
        return Contract(json.load(handle))
