"""Compare two result documents of ``run.py --workload all``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric) with both values, the ratio B/A
(base: A) and a verdict from the bounds in ``BENCHMARK.json``:

* ``ok`` — B is not worse than A by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the repetitions inside either run spread (quartile to
  quartile, as a share of the median) wider than the bound, so the runs
  cannot tell (unless every repetition of B reads better
  than every repetition of A, which is ``ok``, or worse by more than the
  bound than every one of A, which is ``regressed``).

Then one row per metric that must repeat exactly (counts, simulated
values) and differs, and the failed-operation fractions.  Exit status 1 on
any ``regressed`` row, any exact mismatch, or any failed operation.
Exact rows need both documents to share a seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.spec import is_exact, load_contract  # noqa: E402

#: Where a run keeps the per-repetition samples of a metric, if it has any.
_SAMPLES = {"wall_s": "wall_samples_s", "setup_s": "setup_samples_s"}


def _spread(samples: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (the range,
    when there are too few samples for quartiles)."""
    if len(samples) < 2:
        return 0.0
    middle = statistics.median(samples)
    if len(samples) < 4:
        width = max(samples) - min(samples)
    else:
        first, _, third = statistics.quantiles(samples, n=4)
        width = third - first
    return width / middle if middle else 0.0


def verdict(a: float, b: float, bound: float, better: str,
            samples_a: Sequence[float] = (),
            samples_b: Sequence[float] = ()) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric, B against A."""
    sign = 1.0 if better == "lower" else -1.0

    def worse_by(base: float, value: float) -> float:
        return sign * (value - base) / base if base else 0.0

    if max(_spread(samples_a), _spread(samples_b)) > bound:
        pairs = [(x, y) for x in samples_a for y in samples_b]
        if all(worse_by(x, y) < 0 for x, y in pairs):
            return "ok"
        if all(worse_by(x, y) > bound for x, y in pairs):
            return "regressed"
        return "unresolved"
    return "regressed" if worse_by(a, b) > bound else "ok"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
            contract) -> Tuple[List[str], bool]:
    """The report lines and whether anything failed."""
    lines: List[str] = []
    bad = False
    same_seed = doc_a["seed"] == doc_b["seed"]
    shared = [w for w in contract.workloads
              if w in doc_a["workloads"] and w in doc_b["workloads"]]
    lines.append("%-13s %-14s %14s %14s  %-22s %s"
                 % ("workload", "metric", "A", "B", "ratio", "verdict"))
    for workload in shared:
        run_a, run_b = doc_a["workloads"][workload], doc_b["workloads"][workload]
        for name, spec in contract.end_to_end.items():
            a = run_a["end_to_end"][name]["value"]
            b = run_b["end_to_end"][name]["value"]
            key = _SAMPLES.get(name)
            found = verdict(
                a, b, spec["bound"], spec["better"],
                run_a["detail"].get(key, ()) if key else (),
                run_b["detail"].get(key, ()) if key else ())
            bad = bad or found == "regressed"
            ratio = "B/A = %.3f (base A)" % (b / a) if a else "A is 0"
            lines.append("%-13s %-14s %14.6g %14.6g  %-22s %s (bound %+.0f%%)"
                         % (workload, name, a, b, ratio, found,
                            100 * spec["bound"]))
    lines.append("")
    if not same_seed:
        lines.append("exact metrics: skipped, seeds differ (%s vs %s)"
                     % (doc_a["seed"], doc_b["seed"]))
    else:
        mismatches = 0
        checked = 0
        for workload in shared:
            run_a = doc_a["workloads"][workload]
            run_b = doc_b["workloads"][workload]
            for section in ("end_to_end", "per_layer"):
                for name, cell in run_a[section].items():
                    if not is_exact(name):
                        continue
                    checked += 1
                    other = run_b[section][name]["value"]
                    if cell["value"] != other:
                        mismatches += 1
                        lines.append("exact  %-13s %-32s A %r  B %r  DIFFERS"
                                     % (workload, name, cell["value"], other))
        lines.append("exact metrics: %d compared, %d differ"
                     % (checked, mismatches))
        bad = bad or mismatches > 0
    for label, doc in (("A", doc_a), ("B", doc_b)):
        for workload in shared:
            run = doc["workloads"][workload]
            if run["failed"]:
                bad = True
                lines.append("%s %s: ops_failed_frac %d / %d"
                             % (label, workload, run["failed"],
                                run["attempted"]))
    lines.append("ops_failed_frac: 0 everywhere" if not any(
        doc["workloads"][w]["failed"] for doc in (doc_a, doc_b)
        for w in shared) else "ops_failed_frac: failures above")
    return lines, bad


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    lines, bad = compare(documents[0], documents[1], load_contract())
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
