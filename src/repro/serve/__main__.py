"""CLI: run a named serving traffic mix deterministically.

    PYTHONPATH=src python -m repro.serve --mix smoke --policy wfq \
        --seed 11 --out serve-metrics.json

The summary on stdout and the metrics JSON written to ``--out`` are
byte-identical across runs and across ``PYTHONHASHSEED`` values — CI's
``serve-smoke`` job diffs two runs to hold the serving layer to the same
determinism bar as the simulator itself.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.serve.mixes import mix_names, run_mix
from repro.serve.scheduler import SCHEDULER_POLICIES

SCHEMA_VERSION = 1


def _tenant_line(registry, tenant: str) -> str:
    prefix = "serve.tenant.%s" % tenant
    counters = {
        name: registry.counter("%s.%s" % (prefix, name)).value
        for name in ("submitted", "completed", "rejected", "timeouts",
                     "failed", "slo_miss")
    }
    total = registry.histogram("%s.total_us" % prefix)
    if total.count:
        latency = "p50/p95/p99 %0.1f/%0.1f/%0.1f us" % (
            total.quantile(0.50), total.quantile(0.95), total.quantile(0.99))
    else:
        latency = "p50/p95/p99 -/-/- us"
    goodput = registry.gauge("%s.goodput_jps" % prefix).value
    return (
        "tenant %-8s submitted=%-4d completed=%-4d rejected=%-3d "
        "timeouts=%-3d failed=%-3d slo_miss=%-3d %s goodput=%0.1f jobs/s"
        % (tenant, counters["submitted"], counters["completed"],
           counters["rejected"], counters["timeouts"], counters["failed"],
           counters["slo_miss"], latency, goodput or 0.0)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run a deterministic multi-tenant serving mix.")
    parser.add_argument("--mix", default="smoke", help="traffic mix name")
    parser.add_argument("--policy", default="fifo",
                        choices=SCHEDULER_POLICIES)
    parser.add_argument("--placement", default="round_robin",
                        choices=("round_robin", "least_loaded"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--load", type=float, default=1.0,
                        help="open-loop arrival-rate multiplier")
    parser.add_argument("--out", default=None,
                        help="write the metrics JSON snapshot here")
    parser.add_argument("--attribute", action="store_true",
                        help="trace the run and print per-tenant "
                             "latency attribution (timing unchanged)")
    parser.add_argument("--list-mixes", action="store_true")
    args = parser.parse_args(argv)

    if args.list_mixes:
        for name in mix_names():
            print(name)
        return 0

    result = run_mix(args.mix, policy=args.policy, placement=args.placement,
                     seed=args.seed, load_scale=args.load,
                     trace=args.attribute)
    manager = result.manager
    registry = result.system.metrics

    print("mix=%s policy=%s placement=%s seed=%d load=%0.2f"
          % (args.mix, args.policy, args.placement, args.seed, args.load))
    print("simulated %0.4f s; offered %d jobs; submitted %d"
          % (result.elapsed_s, result.loadgen.jobs_offered,
             manager.jobs_submitted))
    for tenant in sorted(manager.tenants):
        print(_tenant_line(registry, tenant))
    for server in manager.servers:
        dispatched = registry.counter(
            "serve.device%d.dispatched" % server.index).value
        print("device%d dispatched=%-4d peak_slots=%d/%d peak_dram=%d B"
              % (server.index, dispatched, server.slots.peak_slots_in_use,
                 server.slots.app_slots,
                 server.slots.peak_dram_reserved_bytes))

    if args.attribute and result.bus is not None:
        from repro.instrument.causal import COMPONENTS, attribute
        report = attribute(result.bus.events)
        for row in report.tenants:
            parts = " ".join(
                "%s=%.1f" % (name, row[name] / 1000.0)
                for name in COMPONENTS if row[name])
            print("attribution tenant %-8s jobs=%-4d e2e=%.1f us  %s"
                  % (row["tenant"], row["queries"],
                     row["end_to_end"] / 1000.0, parts))

    if args.out:
        payload = registry.to_json(extra={
            "schema": SCHEMA_VERSION,
            "mix": args.mix,
            "policy": args.policy,
            "placement": args.placement,
            "seed": args.seed,
            "load": args.load,
            "elapsed_s": result.elapsed_s,
        })
        with open(args.out, "w") as sink:
            sink.write(payload)
        print("metrics -> %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
