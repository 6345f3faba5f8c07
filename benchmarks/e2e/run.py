"""One benchmark for both clocks: host wall time and simulated time.

    python3 benchmarks/e2e/run.py --workload <name|all> [--seed N]
        [--seconds N] [--trace [0|1]] [--smoke]

Runs one workload in this (single-threaded) process: timed set-up, one
untimed warm-up repetition, then repetitions of the measured section until
``--seconds`` have passed since the set-up, with every repetition's outputs
checked.  ``wall_s`` is one repetition with each of its slices (it is cut
where its operations end) at the fastest that slice ran.  The last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it (``{"detail": ...}``) carries the repetition samples, the
environment and the failures.  ``--workload all`` runs every workload in
its own subprocess, both ways, and prints one merged document.

Names, units and bounds come from ``BENCHMARK.json``; see ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = ROOT / "src" / "repro"
OUT_DIR = Path(__file__).resolve().parent / "out"
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e.spec import is_exact, load_contract  # noqa: E402
from benchmarks.e2e.tracing import SelfTimeSampler, SpanRecorder  # noqa: E402
from benchmarks.e2e.yardstick import Yardstick  # noqa: E402

#: A single set-up shorter than this is sampled three times (fresh objects
#: each time; once before the repetitions and twice after them, so that the
#: samples do not share one spell of the box); a longer one, once.
SETUP_RESAMPLE_BELOW_S = 3.0
MIN_TIMED_REPS = 3
#: (max - min) / median of the timed repetitions above which a run says so.
NOISY_SPREAD = 0.15

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            # a checkout that is no repository: do not look above it
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    """What a reader needs to judge whether a run was noisy."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": round(os.getloadavg()[0], 2),
        "commit": _commit(),
    }


def _spread(values: List[float]) -> float:
    """Range over median: the ``noisy`` flag's measure (compare.py judges
    with the quartile distance instead)."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


class SetupSample:
    """What one timed set-up cost (the platform itself is not kept)."""

    def __init__(self, build_s: float, load_s: float, gc_objects: int):
        self.build_s = build_s
        self.load_s = load_s
        self.total_s = build_s + load_s
        self.gc_objects = gc_objects
        self.rss_mb = _peak_rss_mb()


class Runner:
    """Measures one workload in this process."""

    def __init__(self, contract, name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool):
        # Needs src/repro, which main() has checked is there.
        from benchmarks.e2e.workloads import WORKLOADS, Checks

        self.contract = contract
        self.trace = trace
        self.smoke = smoke
        self.seconds = seconds
        self.spans = SpanRecorder(enabled=trace)
        self.workload = WORKLOADS[name](seed, smoke, self.spans)
        self.sampler = SelfTimeSampler(str(PACKAGE_ROOT)) if trace else None
        self.checks = Checks()
        #: Sampled beside every set-up and repetition, never inside one.
        self.yardstick = Yardstick()
        self.setups: List[SetupSample] = []
        self.walls: List[float] = []         # sampler off
        self.sampled_walls: List[float] = []  # sampler on (traced run only)
        #: Every timed repetition cut at the ends of its operations: one
        #: list of slice durations per repetition, adding up to its wall.
        self.slices: List[List[float]] = []
        self.reps: List[Dict[str, float]] = []  # per-repetition exact values
        self.paper: Optional[float] = None

    # ------------------------------------------------------------ set-up
    def _setup(self):
        """Build and load a fresh platform, timed; returns the platform."""
        workload, spans = self.workload, self.spans
        gc.collect()  # an earlier platform's garbage is not this one's cost
        measure_heap = not self.setups  # walking the heap is slow: once
        objects_before = len(gc.get_objects()) if measure_heap else 0
        self.yardstick.sample()
        start = time.perf_counter()
        with spans.span("setup.build"):
            target = workload.build()
        built = time.perf_counter()
        with spans.span("setup.load"):
            workload.load(target)
        loaded = time.perf_counter()
        self.yardstick.sample()
        self.setups.append(SetupSample(
            built - start, loaded - built,
            len(gc.get_objects()) - objects_before if measure_heap else 0))
        return target

    # -------------------------------------------------------- repetitions
    def _repetition(self, index: int, target, timed: bool,
                    sampled: bool) -> None:
        workload = self.workload
        before = workload.counters(target)
        gc.collect()
        self.yardstick.sample()
        workload.op_ends = []
        if sampled:
            self.sampler.start()
        start = time.perf_counter()
        with self.spans.span("rep[%d]" % index if timed else "warmup"):
            out = workload.rep(target)
        end = time.perf_counter()
        if sampled:
            self.sampler.stop()
        wall = end - start
        self.yardstick.sample()
        after = workload.counters(target)
        workload.check(target, out, self.checks)
        if not timed:
            return
        (self.sampled_walls if sampled else self.walls).append(wall)
        # The last slice runs to the end of the repetition.
        cuts = [start] + workload.op_ends[:-1] + [end]
        self.slices.append([b - a for a, b in zip(cuts, cuts[1:])])
        values = workload.per_repetition(before, after)
        values.update(workload.layer_metrics(target, out))
        self.reps.append(values)
        self.paper = workload.paper_rel_err(out)

    def run(self) -> None:
        workload = self.workload
        fresh = workload.fresh_setup_per_rep
        if self.sampler is not None:
            self.sampler.install()
        try:
            target = None if fresh else self._setup()
            began = time.perf_counter()  # --seconds covers the warm-up too
            if not self.smoke:
                self._repetition(0, self._setup() if fresh else target,
                                 timed=False, sampled=False)
            # A traced run alternates sampler-off and sampler-on
            # repetitions: the off ones are the base of trace.overhead_frac.
            minimum = 1 if self.smoke else (
                4 if self.trace else MIN_TIMED_REPS)
            index = 0
            while index < minimum or (
                    not self.smoke
                    and time.perf_counter() - began < self.seconds):
                sampled = self.trace and (self.smoke or index % 2 == 1)
                self._repetition(index, self._setup() if fresh else target,
                                 timed=True, sampled=sampled)
                index += 1
            if (not fresh and not self.smoke
                    and self.setups[0].total_s < SETUP_RESAMPLE_BELOW_S):
                for _ in range(2):
                    target = None  # drop the platform before building anew
                    target = self._setup()
        finally:
            if self.sampler is not None:
                self.sampler.uninstall()
        self._check_repeatable()

    def _check_repeatable(self) -> None:
        """Counts and simulated values must not differ between repetitions
        (nor, by the same token, between runs of one seed)."""
        first = self.reps[0]
        exact = [key for key in first
                 if key == "sim.now_ns"
                 or (key in self.contract.per_layer and is_exact(key))]
        moved = sorted({key for rep in self.reps[1:] for key in exact
                        if rep[key] != first[key]})
        self.checks.op("repeatable", not moved,
                       "differs between repetitions: %s" % ", ".join(moved))

    # ------------------------------------------------------------ results
    def quiet_wall_s(self) -> float:
        """One repetition on a quiet box: each slice at its fastest.

        The box's slow spells only ever add time and outlast whole
        repetitions, so the median follows the box; the fastest time of a
        slice needs one quiet moment per slice, not one quiet repetition.
        """
        widths = {len(slices) for slices in self.slices}
        if len(widths) != 1:  # an operation count changed: cannot align
            return min(self.walls or self.sampled_walls)
        return sum(min(column) for column in zip(*self.slices))

    def end_to_end(self) -> Dict[str, float]:
        # Host times leave this class in reference seconds (yardstick.py).
        ref = self.yardstick.factor()
        return {
            "wall_s": self.quiet_wall_s() * ref,
            "setup_s": min(s.total_s for s in self.setups) * ref,
            "peak_rss_mb": _peak_rss_mb(),
            "sim_elapsed_s": self.reps[0]["sim.now_ns"] / 1e9,
        }

    def per_layer(self) -> Dict[str, float]:
        values = dict(self.reps[0])
        values.pop("sim.now_ns")  # reported as the end-to-end sim_elapsed_s
        first = self.setups[0]
        ref = self.yardstick.factor()
        values.update({
            "setup.build_s": min(s.build_s for s in self.setups) * ref,
            "setup.load_s": min(s.load_s for s in self.setups) * ref,
            "setup.gc_objects": first.gc_objects,
            "setup.rss_mb": first.rss_mb,
            "paper.rel_err": self.paper if self.paper is not None else 0.0,
            "paper.has_reference": int(self.paper is not None),
        })
        wall = statistics.median(self.walls or self.sampled_walls) * ref
        if values["sim.events"]:
            values["sim.wall_us_per_event"] = wall * 1e6 / values["sim.events"]
        sampler = self.sampler
        if sampler is not None and self.sampled_walls:
            # Shares carry the time: the kernel delivers ticks at its own
            # rate, so a share is scaled by a wall time measured here.
            per_rep_s = statistics.mean(self.sampled_walls) * ref
            for name in self.contract.per_layer:
                if name.endswith(".self_s"):
                    # "<layer>.self_s", "<layer>.<file>.self_s", and
                    # "trace.driver.self_s" for ticks outside src/repro/.
                    bucket = name[:-len(".self_s")].split(".")
                    if bucket[0] == "trace":
                        bucket = bucket[1:]
                    values[name] = sampler.share(*bucket) * per_rep_s
            values["trace.samples"] = sampler.samples
            if self.walls:
                # Each sampler-on repetition against the sampler-off one
                # just before it: neighbours in time share the box's mood.
                values["trace.overhead_frac"] = statistics.median(
                    on / off for off, on
                    in zip(self.walls, self.sampled_walls)) - 1.0
        return values

    def detail(self, env: Dict[str, Any]) -> Dict[str, Any]:
        ref = self.yardstick.factor()
        walls = [wall * ref for wall in self.walls or self.sampled_walls]
        spread = _spread(walls)
        return {
            "workload": self.workload.name,
            "seed": self.workload.seed,
            "smoke": self.smoke,
            "trace": self.trace,
            "env": env,
            # kernel_s is the one raw time here; all others are x factor
            "yardstick": {"kernel_s": self.yardstick.kernel_s(),
                          "factor": ref,
                          "samples": len(self.yardstick.samples_s)},
            "wall_samples_s": walls,
            "sampled_wall_samples_s": [w * ref for w in self.sampled_walls],
            "wall_median_s": statistics.median(walls),
            "slices_per_repetition": len(self.slices[0]),
            "wall_min_s": min(walls),
            "wall_max_s": max(walls),
            "wall_spread": spread,
            "noisy": spread > NOISY_SPREAD,
            "setup_samples_s": [s.total_s * ref for s in self.setups],
            "ops_attempted": self.checks.attempted,
            "ops_failed_frac":
                len(self.checks.failures) / max(1, self.checks.attempted),
            "failures": self.checks.failures[:20],
        }

    def write_trace(self, env: Dict[str, Any]) -> str:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("trace-%s.json" % self.workload.name)
        with open(path, "w") as handle:
            json.dump({
                "workload": self.workload.name,
                "seed": self.workload.seed,
                "env": env,
                "clock": "time.perf_counter_ns",
                "spans": self.spans.spans,
                "self_time_samples": self.sampler.table(),
                "sampled_wall_samples_s": self.sampled_walls,
            }, handle, indent=1)
            handle.write("\n")
        return str(path.relative_to(ROOT))


def run_one(args, contract) -> int:
    env = environment()
    runner = Runner(contract, args.workload, args.seed, args.seconds,
                    bool(args.trace), args.smoke)
    runner.run()
    measured = runner.per_layer() if args.trace else runner.end_to_end()
    wanted = contract.per_layer if args.trace else contract.end_to_end
    unknown = sorted(set(measured) - set(wanted))
    if unknown:
        raise SystemExit("metrics missing from BENCHMARK.json: %s" % unknown)
    metrics = {
        name: {"value": measured.get(name, 0), "unit": spec["unit"]}
        for name, spec in wanted.items()}
    detail = runner.detail(env)
    if args.trace:
        detail["trace_file"] = runner.write_trace(env)
    failed = len(runner.checks.failures)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ------------------------------------------------------------ --workload all
def _child(args, workload: str, trace: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    print("running %s --trace %d" % (workload, trace), file=sys.stderr)
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s --trace %d exited %d"
                         % (workload, trace, done.returncode))
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def run_all(args, contract) -> int:
    """Every workload, untraced then traced, one subprocess each."""
    document: Dict[str, Any] = {
        "schema": "biscuit-e2e/1", "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
        "env": environment(), "workloads": {},
    }
    for workload in contract.workloads:
        detail, plain = _child(args, workload, 0)
        trace_detail, traced = _child(args, workload, 1)
        document["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "detail": detail,
            "trace_detail": trace_detail,
        }
    # The cost of looking: the same inputs with and without an EventBus
    # (a single-workload run cannot know it and reports 0).
    found = document["workloads"]
    if "serve_traced" in found and "serve_mix" in found:
        found["serve_traced"]["per_layer"]["instrument.trace_wall_ratio"][
            "value"] = (found["serve_traced"]["end_to_end"]["wall_s"]["value"]
                        / found["serve_mix"]["end_to_end"]["wall_s"]["value"])
    print(json.dumps(document, indent=1, sort_keys=True))
    return 0 if all(w["correct"] for w in found.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    if not PACKAGE_ROOT.is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("benchmarks/e2e: no src/repro or BENCHMARK.json beside "
              "benchmarks/ — nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=contract.workloads + ["all"])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float,
                        default=float(contract.run_seconds),
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run (per-layer)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition, no warm-up")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
