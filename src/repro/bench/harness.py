"""Result containers and table formatting for the experiment harness."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ExperimentResult", "format_table", "results_dir", "save_result",
           "write_bench_json"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + [
        [("%.4g" % value) if isinstance(value, float) else str(value) for value in row]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """One experiment's outcome: metrics plus a printable report."""

    experiment: str  # e.g. "Table II"
    title: str
    headers: List[str]
    rows: List[List[Any]]
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def format(self) -> str:
        parts = ["== %s: %s ==" % (self.experiment, self.title),
                 format_table(self.headers, self.rows)]
        if self.notes:
            parts.append("")
            parts.extend("note: %s" % note for note in self.notes)
        return "\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


def repo_root() -> str:
    """The checkout this package runs from (``src/repro/bench`` -> root)."""
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))


def results_dir() -> str:
    """Directory where benchmark runs drop their formatted reports."""
    path = os.environ.get(
        "REPRO_RESULTS_DIR", os.path.join(repo_root(), "benchmarks", "results"))
    os.makedirs(path, exist_ok=True)
    return path


def save_result(result: ExperimentResult, name: str) -> str:
    """Write a result's report (.txt), raw rows (.csv) and a machine-readable
    metrics sidecar (.metrics.json) to benchmarks/results/."""
    path = os.path.join(results_dir(), "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(result.format() + "\n")
    with open(os.path.join(results_dir(), "%s.csv" % name), "w") as handle:
        handle.write(",".join(str(h) for h in result.headers) + "\n")
        for row in result.rows:
            handle.write(",".join(str(value) for value in row) + "\n")
    sidecar = {
        "experiment": result.experiment,
        "title": result.title,
        "metrics": dict(result.metrics),
    }
    with open(os.path.join(results_dir(), "%s.metrics.json" % name), "w") as handle:
        handle.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return path


def write_bench_json(report: Dict[str, Any], path: str) -> str:
    """Byte-deterministic drop of a ``BENCH_*.json`` report: sorted keys,
    fixed float rounding, no timestamps or environment detail.  Returns
    ``path`` as given, so a report that cites it is checkout-independent."""
    with open(path, "w") as handle:
        handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path
