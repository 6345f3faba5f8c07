"""Command-line experiment runner.

Run every paper experiment (or a chosen subset) and print the reports::

    python -m repro.bench                 # everything
    python -m repro.bench table2 fig10    # selected experiments
    python -m repro.bench --list          # show what exists
    python -m repro.bench fig10 --sf 0.02 # override the TPC-H scale factor
    python -m repro.bench e2e --workload all --smoke   # BENCHMARK.json's runner
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

from repro.bench import ablations, experiments
from repro.bench.cluster import exp_cluster
from repro.bench.harness import repo_root, save_result
from repro.bench.resilience import exp_resilience
from repro.bench.throughput import exp_sim_throughput

EXPERIMENTS = {
    "table2": ("Table II — I/O port latencies", experiments.exp_table2_port_latency, False),
    "table3": ("Table III — read latency", experiments.exp_table3_read_latency, False),
    "fig7": ("Fig. 7 — read bandwidth", experiments.exp_fig7_read_bandwidth, False),
    "table4": ("Table IV — pointer chasing", experiments.exp_table4_pointer_chasing, False),
    "table5": ("Table V — string search", experiments.exp_table5_string_search, False),
    "fig8": ("Fig. 8 — DB filter queries", experiments.exp_fig8_db_filter_queries, True),
    "fig9": ("Fig. 9 — power", experiments.exp_fig9_power, True),
    "table6": ("Table VI — energy", experiments.exp_table6_energy, True),
    "fig10": ("Fig. 10 — full TPC-H", experiments.exp_fig10_tpch, True),
    "serve": ("Serving — saturation sweep + fairness", experiments.exp_serve_saturation, False),
    "kvstore": ("Extension — KV-store metadata traversal (§VI)", ablations.exp_kvstore_metadata, False),
    "scaleup": ("Extension — scale-up across 1-8 SSDs (Fig. 1(b))", ablations.exp_scaleup_multi_ssd, False),
    "scaleout": ("Extension — scale-out cluster search (Fig. 1(c)/(d))", ablations.exp_scaleout_cluster, False),
    "ablation_gc_overprovisioning": ("Ablation — FTL write amplification vs over-provisioning", ablations.exp_ablation_gc_overprovisioning, False),
    "ablation_selectivity_threshold": ("Ablation — offload selectivity threshold", ablations.exp_ablation_selectivity_threshold, False),
    "ablation_channel_scaling": ("Ablation — internal bandwidth vs channel count", ablations.exp_ablation_channel_scaling, False),
    "ablation_matcher_vs_software": ("Ablation — matcher IP vs device software scan", ablations.exp_ablation_matcher_vs_software, False),
    "ablation_join_order": ("Ablation — NDP-first join order on Q14", ablations.exp_ablation_join_order, False),
    "ablation_aggregate_pushdown": ("Ablation — aggregate pushdown vs row shipping", ablations.exp_ablation_aggregate_pushdown, False),
    "ablation_read_cache": ("Ablation — device-DRAM read cache", ablations.exp_ablation_read_cache, False),
    "resilience": ("Resilience — SQL under a seeded fault storm", exp_resilience, False),
    "cluster": ("Cluster — sharded scatter-gather SQL + crash storm", exp_cluster, True),
    "sim_throughput": ("Simulator — events processed with the fused fast path on vs off", exp_sim_throughput, False),
}


def save_name(name: str) -> str:
    """The one basename experiment ``name``'s result files carry under
    benchmarks/results/ — its function's name: ``exp_fig10_tpch`` ->
    ``fig10_tpch``."""
    return EXPERIMENTS[name][1].__name__[len("exp_"):]


def run_e2e(argv) -> int:
    """The end-to-end benchmark (``BENCHMARK.json``): its own script under
    benchmarks/e2e/, run as a child with ``argv`` passed through."""
    script = os.path.join(repo_root(), "benchmarks", "e2e", "run.py")
    return subprocess.call([sys.executable, script] + list(argv))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["e2e"]:
        return run_e2e(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the Biscuit paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--sf", type=float, default=None,
                        help="TPC-H scale factor for the DB experiments")
    parser.add_argument("--no-save", action="store_true",
                        help="do not write benchmarks/results/*.txt")
    args = parser.parse_args(argv)

    if args.list:
        width = max(map(len, EXPERIMENTS))
        for name, (title, _, takes_sf) in EXPERIMENTS.items():
            extra = "  (honors --sf)" if takes_sf else ""
            print("%-*s %s%s" % (width, name, title, extra))
        print("%-*s %s" % (width, "e2e", "End-to-end — both clocks, seven workloads "
                           "(first argument; the rest go to benchmarks/e2e/run.py)"))
        return 0

    chosen = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        parser.error("unknown experiment(s): %s (try --list)" % ", ".join(unknown))

    for name in chosen:
        title, fn, takes_sf = EXPERIMENTS[name]
        print("\n### %s" % title)
        started = time.time()  # repro: noqa RPR001 -- CLI wall-clock progress, never simulated time
        result = fn(args.sf) if (takes_sf and args.sf is not None) else fn()
        print(result.format())
        print("[%.1fs wall]" % (time.time() - started))  # repro: noqa RPR001 -- CLI wall-clock progress
        if not args.no_save:
            path = save_result(result, save_name(name))
            print("saved: %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
