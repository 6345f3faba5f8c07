"""Seeded property-style generators (stdlib ``random`` only, no new deps).

Every generator takes an explicit ``random.Random`` so that one integer seed
derives the whole case — SSD geometry, table contents, query, fault plan.
That is what makes the shrinking-free ``REPRO:`` format work: a failure line
carries only the seed plus the generator version, the faults flag and the
arm (``REPRO: seed=7 config=v4:faults=on:arm=sharded``), and
:func:`repro.testing.differential.replay` regenerates the case on that arm.
"""

from __future__ import annotations

import random
import re
from typing import Any, Dict, List, Tuple

from repro.db.catalog import Column, TableSchema, date_to_int
from repro.db.expr import (
    between,
    col,
    eq,
    ge,
    in_,
    le,
    like,
    mul,
    and_,
)
from repro.sim.units import KIB, MIB
from repro.ssd.config import SSDConfig
from repro.testing.faults import CrashWindow, FaultPlan, FaultStorm, StormPhase

__all__ = [
    "GENERATOR_VERSION",
    "gen_ssd_config",
    "gen_table",
    "gen_query",
    "gen_fault_plan",
    "gen_fault_storm",
    "gen_replica_layout",
    "gen_cluster_layout",
    "gen_schedule",
    "repro_line",
    "parse_repro",
]

#: Bump when a generator change invalidates old REPRO lines.
GENERATOR_VERSION = "v4"  # v4: fault storms + replica layouts drawn

#: String-column vocabulary: ≥4-char words so LIKE prefixes stay HW-usable.
WORDS = ("alpha", "bravo", "carbon", "delta", "ember",
         "falcon", "garnet", "helium")


# ----------------------------------------------------------------- SSD config
def gen_ssd_config(rng: random.Random) -> SSDConfig:
    """A small randomized geometry (fast to simulate, still multi-channel).

    The device-DRAM read cache is drawn in too (off / tiny / comfortable),
    so every differential sweep exercises cached and uncached reads against
    the same reference rows — a stale cache line would surface as a latency
    anomaly and, more importantly, any cache-path bug that corrupts control
    flow surfaces as a mismatch.
    """
    logical = rng.choice([2 * KIB, 4 * KIB])
    physical = logical * rng.choice([2, 4])
    geometry = dict(
        channels=rng.choice([2, 4, 8]),
        dies_per_channel=rng.choice([2, 4]),
        logical_page_bytes=logical,
        physical_page_bytes=physical,
        pages_per_block=32,
        blocks_per_die=16,
        overprovision_ratio=rng.choice([0.1, 0.125, 0.2]),
        read_retry_limit=rng.choice([1, 2, 3]),
        read_retry_backoff_us=rng.choice([0.0, 20.0, 40.0]),
        read_cache_bytes=physical * rng.choice([0, 0, 4, 64]),
    )
    # Drawn and discarded (the retired read-cache policy), so every later
    # draw for a seed, in this config and after it, keeps its value.
    rng.choice(["lru", "2q"])
    return SSDConfig(
        **geometry,
        read_coalesce_limit=rng.choice([1, 4, 8]),
        # Serving-layer admission budgets (repro.serve): tight to roomy, so
        # sweeps cover both queue-bound and slot-bound admission regimes.
        serve_app_slots=rng.choice([2, 4, 8]),
        serve_dram_budget_bytes=rng.choice([64, 128, 256]) * MIB,
    )


# --------------------------------------------------------------------- tables
def gen_table(rng: random.Random) -> Tuple[TableSchema, List[tuple]]:
    """A randomized TPC-H-style table: typed columns, seeded row contents."""
    columns = [Column("c0", "int")]  # unique row id
    for index in range(1, rng.randint(3, 5)):
        columns.append(Column("c%d" % index,
                              rng.choice(["int", "float", "str", "date"])))
    schema = TableSchema("t", columns)
    base_date = date_to_int("1993-01-01")
    rows: List[tuple] = []
    for row_id in range(rng.randint(80, 400)):
        values: List[Any] = [row_id]
        for column in columns[1:]:
            if column.ctype == "int":
                values.append(rng.randint(0, 50))
            elif column.ctype == "float":
                values.append(round(rng.uniform(0.0, 1000.0), 2))
            elif column.ctype == "str":
                values.append(rng.choice(WORDS))
            else:
                values.append(base_date + rng.randint(0, 2000))
        rows.append(tuple(values))
    return schema, rows


# -------------------------------------------------------------------- queries
def _gen_conjunct(rng: random.Random, schema: TableSchema, rows: List[tuple]):
    column = rng.choice(schema.columns)
    position = schema.position(column.name)
    values = [row[position] for row in rows]
    reference = col(column.name)

    def pick():
        return rng.choice(values)

    if column.ctype == "str":
        kind = rng.choice(["eq", "in", "like", "in-wide"])
        distinct = sorted(set(values))
        if kind == "eq" or len(distinct) < 2:
            return eq(reference, pick())
        if kind == "in":
            return in_(reference, rng.sample(distinct, min(len(distinct), rng.randint(2, 3))))
        if kind == "like":
            return like(reference, pick()[:4] + "%")
        # Wider than the matcher's 3 key slots: a valid query the planner
        # must decline to offload (falls back to the host path on both sides).
        if len(distinct) >= 4:
            return in_(reference, rng.sample(distinct, rng.randint(4, min(5, len(distinct)))))
        return eq(reference, pick())
    if column.ctype == "date":
        low, high = sorted((pick(), pick()))
        return between(reference, low, high + 1)
    if column.ctype == "int":
        kind = rng.choice(["eq", "between", "ge", "in"])
        if kind == "eq":
            return eq(reference, pick())
        if kind == "between":
            low, high = sorted((pick(), pick()))
            return between(reference, low, high + 1)
        if kind == "ge":
            return ge(reference, pick())
        return in_(reference, sorted(set(rng.sample(values, min(len(values), 3)))))
    # float
    kind = rng.choice(["le", "ge", "between"])
    if kind == "le":
        return le(reference, pick())
    if kind == "ge":
        return ge(reference, pick())
    low, high = sorted((pick(), pick()))
    return between(reference, low, high + 0.5)


def gen_query(rng: random.Random, schema: TableSchema,
              rows: List[tuple]) -> Dict[str, Any]:
    """A randomized filter or aggregate query over the generated table.

    Filter queries carry a predicate plus a projected column subset;
    aggregate queries add an optional GROUP BY and 1–3 aggregates drawn
    from the device-supported kinds (sum/count/avg/min/max).
    """
    pred = and_(*[_gen_conjunct(rng, schema, rows)
                  for _ in range(rng.choice([1, 1, 2]))])
    if rng.random() < 0.55:
        names = schema.column_names()
        cols = rng.sample(names, rng.randint(1, len(names)))
        return {"kind": "filter", "pred": pred, "cols": cols}
    numeric = [c.name for c in schema.columns if c.ctype in ("int", "float")]
    any_cols = schema.column_names()
    aggs: List[Tuple[str, str, Any]] = []
    for index in range(rng.randint(1, 3)):
        kind = rng.choice(["sum", "count", "avg", "min", "max"])
        name = "a%d" % index
        if kind == "count":
            aggs.append((name, "count", None))
        elif kind in ("sum", "avg"):
            if rng.random() < 0.25 and len(numeric) >= 2:
                first, second = rng.sample(numeric, 2)
                aggs.append((name, kind, mul(col(first), col(second))))
            else:
                aggs.append((name, kind, col(rng.choice(numeric))))
        else:
            aggs.append((name, kind, col(rng.choice(any_cols))))
    group_cols = [c.name for c in schema.columns if c.ctype in ("str", "int")]
    group_by = [rng.choice(group_cols)] if (group_cols and rng.random() < 0.5) else []
    return {"kind": "aggregate", "pred": pred, "group_by": group_by, "aggs": aggs}


# ---------------------------------------------------------------- fault plans
def gen_fault_plan(rng: random.Random) -> FaultPlan:
    """A randomized fault schedule, from quiet to harsh.

    The ``harsh`` profile includes uncorrectable reads, so some harsh cases
    legitimately end in a typed device error instead of a result — the
    differential harness classifies (and asserts the typing of) those.
    """
    profile = rng.choice(["quiet", "ecc", "latency", "mixed", "harsh"])
    seed = rng.randrange(1 << 30)
    if profile == "quiet":
        return FaultPlan(seed=seed)
    if profile == "ecc":
        return FaultPlan(seed=seed, ecc_rate=rng.uniform(0.01, 0.10))
    if profile == "latency":
        return FaultPlan(
            seed=seed,
            spike_rate=rng.uniform(0.02, 0.10),
            stall_rate=rng.uniform(0.005, 0.03),
            spike_us=rng.choice([200.0, 400.0, 800.0]),
            stall_us=rng.choice([400.0, 800.0, 1600.0]),
        )
    if profile == "mixed":
        return FaultPlan(
            seed=seed,
            ecc_rate=rng.uniform(0.01, 0.05),
            spike_rate=rng.uniform(0.01, 0.05),
            stall_rate=rng.uniform(0.005, 0.02),
        )
    return FaultPlan(
        seed=seed,
        ecc_rate=rng.uniform(0.05, 0.12),
        uncorrectable_rate=rng.uniform(0.001, 0.004),
        spike_rate=0.02,
        stall_rate=0.01,
    )


# --------------------------------------------------------------- fault storms
def gen_fault_storm(rng: random.Random, errors: bool = True) -> FaultStorm:
    """A time-windowed fault storm (1–3 phases, optionally a crash window).

    With ``errors=False`` the storm only contains latency faults (spikes,
    stalls) and no crash windows — the profile a *replica* device gets in
    the resilient differential sweep, so retry/failover always has a copy
    that can eventually answer.  Storm windows are finite by construction;
    a retry budget whose backoff outlasts ``end_us`` converges.
    """
    phases = []
    clock_us = rng.choice([0.0, 0.0, 200.0, 1000.0])
    for _ in range(rng.randint(1, 3)):
        duration_us = rng.choice([1000.0, 2500.0, 5000.0, 10000.0])
        seed = rng.randrange(1 << 30)
        profile = (rng.choice(["uncorrectable_burst", "ecc_burst",
                               "stall", "mixed"])
                   if errors else rng.choice(["quiet", "stall", "spike"]))
        if profile == "uncorrectable_burst":
            plan = FaultPlan(seed=seed,
                             uncorrectable_rate=rng.uniform(0.05, 0.4),
                             ecc_rate=rng.uniform(0.0, 0.05))
        elif profile == "ecc_burst":
            plan = FaultPlan(seed=seed, ecc_rate=rng.uniform(0.1, 0.4))
        elif profile == "stall":
            plan = FaultPlan(seed=seed,
                             stall_rate=rng.uniform(0.02, 0.15),
                             stall_us=rng.choice([400.0, 800.0, 1600.0]))
        elif profile == "spike":
            plan = FaultPlan(seed=seed,
                             spike_rate=rng.uniform(0.05, 0.2),
                             spike_us=rng.choice([200.0, 400.0, 800.0]))
        elif profile == "mixed":
            plan = FaultPlan(seed=seed,
                             ecc_rate=rng.uniform(0.02, 0.1),
                             uncorrectable_rate=rng.uniform(0.01, 0.1),
                             spike_rate=rng.uniform(0.0, 0.05),
                             stall_rate=rng.uniform(0.0, 0.03))
        else:  # quiet
            plan = FaultPlan(seed=seed)
        phases.append(StormPhase(clock_us, duration_us, plan))
        clock_us += duration_us + rng.choice([0.0, 500.0, 2000.0])
    crashes = ()
    if errors and rng.random() < 0.4:
        start_us = rng.choice([500.0, 2000.0, 5000.0])
        crashes = (CrashWindow(start_us, rng.choice([1000.0, 3000.0])),)
    return FaultStorm(phases=tuple(phases), crashes=crashes)


def gen_replica_layout(rng: random.Random) -> Dict[str, Any]:
    """How the resilient arm replicates and recovers a seeded case.

    Draws the checkpoint granularity, the retry budget, and whether hedged
    reads are armed (with a deterministic default deadline — the sweep runs
    one query per system, so there is no latency history to learn from).
    """
    return {
        "num_devices": 2,
        "primary": 0,
        "checkpoint_pages": rng.choice([1, 2, 4, 8]),
        "retry_limit": rng.choice([6, 8, 10]),
        "backoff_us": rng.choice([250.0, 500.0, 1000.0]),
        "hedge": rng.random() < 0.5,
        "hedge_default_us": rng.choice([1500.0, 3000.0, 6000.0]),
    }


def gen_cluster_layout(rng: random.Random, schema: TableSchema,
                       rows: List[tuple]) -> Dict[str, Any]:
    """How the sharded arm spreads (and breaks) a seeded case.

    Drawn *after* the common prefix (geometry, table, query, fault plan) so
    every other arm's random stream stays seed-aligned.  Draws the fleet
    shape, the partition key and kind (range bounds come from quantiles of
    the actual key values, so every orderable column type works), whether
    one shard's primary node is crashed before the query runs, and whether
    the executor hedges.
    """
    num_nodes = rng.choice([3, 4, 5])
    num_shards = rng.choice([num_nodes, 2 * num_nodes])
    key = rng.choice(schema.column_names())
    kind = rng.choice(["hash", "hash", "range"])
    bounds: Tuple[Any, ...] = ()
    if kind == "range":
        position = schema.position(key)
        values = sorted(row[position] for row in rows)
        bounds = tuple(values[(i * len(values)) // num_shards]
                       for i in range(1, num_shards))
    return {
        "num_nodes": num_nodes,
        "num_shards": num_shards,
        "replication": 2,
        "key": key,
        "kind": kind,
        "bounds": bounds,
        "crash_primary": rng.random() < 0.35,
        "crash_shard": rng.randrange(num_shards),
        "hedge": rng.random() < 0.5,
        "hedge_default_us": rng.choice([1500.0, 3000.0, 6000.0]),
    }


# -------------------------------------------------------- two-app schedules
def gen_schedule(rng: random.Random) -> Dict[str, Any]:
    """A concurrent two-app schedule for the interleaving sweep.

    Draws which companion SSDlet application shares the device with the
    query engine, its working-set size, and how the two launches interleave
    (who starts first, and by how much).  The differential harness runs the
    same seeded query solo and under this schedule; the row sets must be
    identical — concurrency may move time around, never bytes.
    """
    companion = rng.choice(["string_search", "pointer_chase"])
    schedule: Dict[str, Any] = {
        "companion": companion,
        "stagger_us": rng.choice([0.0, 50.0, 250.0, 1000.0]),
        "query_first": rng.random() < 0.5,
        "seed": rng.randrange(1 << 30),
    }
    if companion == "string_search":
        schedule["keyword"] = rng.choice(WORDS)
        schedule["log_bytes"] = rng.choice([256, 512]) * KIB
    else:
        schedule["nodes"] = rng.choice([128, 256])
        schedule["walks"] = rng.choice([2, 4])
        schedule["hops"] = rng.randint(4, 12)
    return schedule


# -------------------------------------------------------------- REPRO format
_REPRO_RE = re.compile(
    r"REPRO:\s+seed=(\d+)\s+config=([A-Za-z0-9_.-]+):faults=(on|off)"
    r":arm=([a-z]+)")


def repro_line(seed: int, faults: bool, arm: str) -> str:
    """The one-line replay token printed with every harness failure."""
    return "REPRO: seed=%d config=%s:faults=%s:arm=%s" % (
        seed, GENERATOR_VERSION, "on" if faults else "off", arm)


def parse_repro(line: str) -> Tuple[int, bool, str]:
    """Parse a ``REPRO:`` line back into (seed, faults, arm)."""
    match = _REPRO_RE.search(line)
    if match is None:
        raise ValueError("not a REPRO line: %r" % line)
    version = match.group(2)
    if version != GENERATOR_VERSION:
        raise ValueError(
            "REPRO line is from generator %s, this is %s"
            % (version, GENERATOR_VERSION))
    return int(match.group(1)), match.group(3) == "on", match.group(4)
