"""The standing cluster benchmark: sharded scatter-gather SQL on a fleet.

A 4-node fleet (replication 2, 8 shards) holds TPC-H lineitem hash-
partitioned on ``l_orderkey`` plus a hash-sharded KV store.  The run has
two phases:

* **healthy** — a stream of scans, grouped aggregates, point lookups and
  KV batches scatter-gathers across the fleet; every SQL answer is
  differential-verified against SQLite's answer to the same statement
  over the raw rows (the benchmark *fails* on a wrong answer).
* **crash storm** — tenant jobs flow through the placement-aware
  :class:`repro.cluster.serve.ClusterServeDriver` while nodes crash and
  recover under load; queries keep running mid-storm and must stay
  correct through replica failover.

Reported: per-shard skew, scatter fan-out, tail amplification (cluster
query p99 over single-shard RPC p99), network bytes moved vs NAND bytes
scanned, and job goodput under the storm.  The run is seeded and
simulated-time only, so every number in
``benchmarks/results/cluster.metrics.json`` is byte-identical across hosts
and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.bench.harness import ExperimentResult
from repro.bench.resilience import _quantile_us
from repro.cluster import ClusterExecutor, ShardedFleet, ShardedKVStore
from repro.cluster.serve import ClusterServeDriver
from repro.db.executor import EngineConfig
from repro.db.reference import query
from repro.db.tpch.datagen import generate_tables
from repro.db.tpch.schema import TPCH_SCHEMAS
from repro.resilience import HedgePolicy
from repro.serve.jobs import JobSpec
from repro.serve.manager import Tenant
from repro.testing.differential import rows_match

__all__ = ["exp_cluster", "run_cluster_bench"]

#: Fleet shape (the acceptance floor is a >=4-node fleet).
NUM_NODES = 4
NUM_SHARDS = 8
REPLICATION = 2
JOBS_PER_WAVE = 16  # crash-storm jobs submitted per wave


#: The healthy phase's statements.  Each is its own reference: SQLite
#: answers the same text over the raw rows (:mod:`repro.db.reference`).
QUERIES = [sql for threshold in (20, 30, 40, 45) for sql in (
    "SELECT l_orderkey, l_quantity FROM lineitem "
    "WHERE l_quantity >= %d" % threshold,
    "SELECT l_returnflag, sum(l_quantity) AS s, count(*) AS n "
    "FROM lineitem WHERE l_quantity >= %d "
    "GROUP BY l_returnflag" % threshold,
)]
STORM_QUERY = ("SELECT l_returnflag, count(*) AS n FROM lineitem "
               "GROUP BY l_returnflag")


def run_cluster_bench(seed: int = 2016, sf: float = 0.002) -> Dict[str, Any]:
    """One seeded fleet run; returns the flat, JSON-ready report dict."""
    rng = random.Random(seed)
    rows = generate_tables(sf, seed=20160618)["lineitem"]
    schema = TPCH_SCHEMAS["lineitem"]

    # Sharding divides lineitem eight ways, so each copy sits under the
    # default "table too small to offload" floor; lower the floor so the
    # per-shard scans take the device-side NDP path they would at scale.
    engine_config = EngineConfig(ndp_min_table_pages=1,
                                 ndp_min_table_fraction=0.0,
                                 ndp_sample_pages=8)
    fleet = ShardedFleet(num_nodes=NUM_NODES, num_shards=NUM_SHARDS,
                         replication=REPLICATION, ssds_per_node=1,
                         engine_config=engine_config)
    fleet.load_sharded(schema, rows, key="l_orderkey", kind="hash")
    kv_items = [(b"key%06d" % i, b"v" * rng.randrange(16, 96))
                for i in range(2000)]
    kv = ShardedKVStore.build(fleet, kv_items, name="bench-kv")
    executor = ClusterExecutor(fleet, hedge=HedgePolicy(default_us=8_000.0))

    counts = fleet.shard_row_counts("lineitem")
    ideal = len(rows) / NUM_SHARDS
    skew = max(counts) / ideal

    # ------------------------------------------------------- healthy phase
    tables = {"lineitem": (schema, rows)}
    latencies_us: List[float] = []
    wrong_results = 0
    for sql in QUERIES:
        rel, elapsed_s = executor.run_sql(sql)
        latencies_us.append(elapsed_s * 1e6)
        if not rows_match(rel.rows, query(tables, sql)):
            wrong_results += 1
    # Snapshot the per-shard RPC latencies of exactly this query stream, so
    # the tail-amplification ratio compares like with like (point lookups,
    # KV batches and storm legs are excluded from both sides).
    leg_us = [ns / 1000.0 for ns in executor.leg_latencies_ns]
    # Point lookups prune to one shard; first alive copy answers.
    order_keys = sorted({r[0] for r in rows})
    for value in order_keys[:6]:
        rel = fleet.run_fiber(executor.point_lookup("lineitem", value),
                              name="bench-lookup")
        if sorted(rel.rows) != sorted(r for r in rows if r[0] == value):
            wrong_results += 1
    # One scattered KV batch (mixed present/absent keys).
    probe = [key for key, _ in kv_items[::97]] + [b"missing-key"]
    got = fleet.run_fiber(executor.kv_lookup(kv, probe), name="bench-kv")
    kv_expected = dict(kv_items)
    if any(got[key] != kv_expected.get(key) for key in probe):
        wrong_results += 1

    healthy_p99_us = _quantile_us(latencies_us, 0.99)
    single_shard_p99_us = _quantile_us(leg_us, 0.99)
    tail_amplification = (healthy_p99_us / single_shard_p99_us
                          if single_shard_p99_us else 0.0)
    network_bytes = fleet.network_bytes()
    nand_bytes = fleet.nand_bytes_read()

    # --------------------------------------------------- crash-storm phase
    tenants = [Tenant("alpha", weight=2.0), Tenant("beta", weight=1.0)]
    driver = ClusterServeDriver(fleet, tenants, scheduler="wfq",
                                placement="least_loaded")
    storm_wrong = 0
    storm_latencies_us: List[float] = []

    def submit_wave(wave: int) -> None:
        for i in range(JOBS_PER_WAVE):
            tenant = tenants[i % len(tenants)].name
            kind = ("db_scan", "string_search", "pointer_chase")[i % 3]
            shard = (wave * JOBS_PER_WAVE + i) % NUM_SHARDS
            driver.submit(JobSpec(tenant=tenant, kind=kind), shard=shard)

    def storm() -> Any:
        sim = fleet.sim
        submit_wave(0)
        yield sim.timeout(2_000_000)  # 2 ms: wave 0 is mid-flight
        fleet.crash_node(1)           # in-flight jobs on node1 die
        submit_wave(1)                # routed around the dead node
        start = sim.now
        rel = yield from executor.sql_fiber(STORM_QUERY)
        storm_latencies_us.append((sim.now - start) / 1000.0)
        if not rows_match(rel.rows, query(tables, STORM_QUERY)):
            return 1
        yield sim.timeout(2_000_000)
        fleet.recover_node(1)
        fleet.crash_node(2)
        submit_wave(2)
        yield from driver.drain()
        fleet.recover_node(2)
        return 0

    storm_wrong = fleet.run_fiber(storm(), name="cluster-storm")
    driver.finalize(fleet.sim.now / 1e9)
    outcome_counts = driver.outcome_counts()

    report: Dict[str, Any] = {
        "seed": seed,
        "scale_factor": sf,
        "num_nodes": NUM_NODES,
        "num_shards": NUM_SHARDS,
        "replication": REPLICATION,
        "lineitem_rows": len(rows),
        "shard_rows_min": min(counts),
        "shard_rows_max": max(counts),
        "shard_skew": round(skew, 4),
        "queries": len(QUERIES),
        "wrong_results": wrong_results + storm_wrong,
        "scatter_calls": executor.scatter_calls,
        "shard_rpcs": executor.shard_rpcs,
        "mean_fan_out": round(
            executor.fan_out_total / max(1, executor.scatter_calls), 3),
        "max_fan_out": executor.max_fan_out,
        "point_lookups": executor.point_lookups,
        "retries": executor.retries,
        "failovers": executor.failovers,
        "merged_rows": executor.merged_rows,
        "cluster_p50_us": round(_quantile_us(latencies_us, 0.50), 1),
        "cluster_p99_us": round(healthy_p99_us, 1),
        "single_shard_p99_us": round(single_shard_p99_us, 1),
        "tail_amplification": round(tail_amplification, 4),
        "network_bytes": network_bytes,
        "nand_bytes_read": nand_bytes,
        "network_to_nand_ratio": round(
            network_bytes / nand_bytes, 4) if nand_bytes else 0.0,
        "storm_query_p99_us": round(
            _quantile_us(storm_latencies_us, 0.99), 1),
        "storm_jobs_submitted": len(driver.jobs),
        "storm_jobs_done": outcome_counts.get("done", 0),
        "storm_goodput": round(driver.goodput(), 4),
        "storm_rejected_unroutable": driver.rejected_unroutable,
        "crashes": fleet.crashes,
        "recoveries": fleet.recoveries,
        "rpcs_served": fleet.rpcs_served(),
        "ndp_scans": fleet.ndp_scans(),
        "elapsed_sim_s": round(fleet.sim.now / 1e9, 6),
    }
    for key, value in sorted(executor.hedge.counters().items()):
        report["hedge_%s" % key] = value
    for state, count in sorted(outcome_counts.items()):
        report["jobs_%s" % state] = count
    return report


def exp_cluster(sf: float = None) -> ExperimentResult:
    """The ``python -m repro.bench cluster`` entry point."""
    report = run_cluster_bench(sf=sf if sf is not None else 0.002)
    shown = [
        "num_nodes", "num_shards", "lineitem_rows",
        "shard_skew", "mean_fan_out", "max_fan_out",
        "cluster_p99_us", "single_shard_p99_us", "tail_amplification",
        "network_bytes", "nand_bytes_read", "network_to_nand_ratio",
        "wrong_results", "failovers",
        "storm_goodput", "storm_jobs_done", "storm_rejected_unroutable",
    ]
    table_rows = [[name, report[name]] for name in shown]
    metrics = {key: float(value) for key, value in report.items()
               if isinstance(value, (int, float))}
    notes = [
        "every SQL answer differential-verified against SQLite's answer "
        "to the same statement; wrong_results must be 0",
        "tail_amplification = cluster query p99 / single-shard RPC p99",
        "storm_goodput counts jobs finished despite two mid-run node "
        "crashes (in-flight work on the victims dies, routing fails over)",
    ]
    if report["wrong_results"]:
        notes.insert(0, "CLUSTER FAILURE: %d wrong results"
                     % report["wrong_results"])
    return ExperimentResult(
        experiment="Cluster",
        title="Sharded NDP fleet — scatter-gather SQL + crash storm",
        headers=["metric", "value"],
        rows=table_rows,
        metrics=metrics,
        notes=notes,
    )
