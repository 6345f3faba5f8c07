"""Differential harness: NDP pushdown vs host-only vs a SQLite reference.

One seeded case = one randomized SSD geometry + table + query + fault plan
(all derived from a single integer; see :mod:`repro.testing.strategies`).
The case runs through three executions:

* **reference** — the case printed as SQL (``to_sql``) and answered by
  stdlib ``sqlite3`` over the raw rows (:mod:`repro.db.reference`), with no
  simulator involved (so faults cannot touch it),
* **host** — the CONV engine (everything crosses the host interface),
* **ndp** — the BISCUIT engine with offload thresholds forced open, so a
  matcher-amenable predicate really runs as ScanFilter/ScanAggregate
  SSDlets on the device.

Outcomes: ``match`` (all three agree), ``mismatch`` (a correctness bug —
the repro line replays it), or ``device-error`` (injected unrecoverable
faults killed a path with a *typed* :class:`repro.core.errors.DeviceError`,
which is the propagation contract under test; an untyped exception
escapes the harness and fails the suite).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

from repro.apps.pointer_chase import biscuit_pointer_chase, build_exact_graph
from repro.apps.string_search import biscuit_string_search, install_weblog
from repro.core.errors import DeviceError
from repro.db import kernels
from repro.db.catalog import TableSchema
from repro.db.executor import Engine, EngineConfig, ExecutionMode, TableRef
from repro.db.expr import (
    Arith, Between, Case, Cmp, Col, Const, Func, InList, Like, Logic, Not,
)
from repro.db.planner import create_engine
from repro.db.reference import query as oracle
from repro.db.sql import to_sql
from repro.db.storage import Database
from repro.host.platform import System
from repro.resilience import (
    HedgePolicy, RecoveryTracker, ResilientScanDriver, RetryPolicy, ScanSpec,
)
from repro.sim.engine import all_of
from repro.testing import strategies
from repro.testing.faults import FaultInjector, StormInjector

__all__ = [
    "CaseResult", "run_case", "run_case_fastpath", "run_case_interleaved",
    "run_case_perturbed", "run_case_resilient", "run_case_sharded",
    "run_sweep",
    "run_fastpath_sweep", "run_perturbed_sweep", "run_resilient_sweep",
    "run_sharded_sweep",
    "replay", "replay_resilient", "replay_sharded",
    "summarize", "rows_match", "eval_expr", "force_offload_config",
]


# ----------------------------------------------------------------- reference
def eval_expr(expr, row: tuple, positions: Dict[str, int]) -> Any:
    """Interpret an expression AST directly (independent of compile_expr).

    This is the reference for the kernel compiler's *Python* semantics —
    exact result types, true division, CASE, ``year`` and ``substring`` —
    which SQLite's answers cannot check; the case verdicts ask SQLite.
    """
    if isinstance(expr, Col):
        return row[positions[expr.name]]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Cmp):
        left = eval_expr(expr.left, row, positions)
        right = eval_expr(expr.right, row, positions)
        return {"==": left == right, "!=": left != right,
                "<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right}[expr.op]
    if isinstance(expr, Logic):
        if expr.op == "and":
            return all(eval_expr(arg, row, positions) for arg in expr.args)
        return any(eval_expr(arg, row, positions) for arg in expr.args)
    if isinstance(expr, Not):
        return not eval_expr(expr.arg, row, positions)
    if isinstance(expr, Between):
        value = eval_expr(expr.column, row, positions)
        return (eval_expr(expr.low, row, positions) <= value
                < eval_expr(expr.high, row, positions))
    if isinstance(expr, InList):
        return eval_expr(expr.column, row, positions) in expr.values
    if isinstance(expr, Like):
        pattern = "^"
        for char in expr.pattern:
            pattern += ".*" if char == "%" else ("." if char == "_" else re.escape(char))
        hit = re.match(pattern + "$", eval_expr(expr.column, row, positions),
                       re.DOTALL) is not None
        return not hit if expr.negated else hit
    if isinstance(expr, Arith):
        left = eval_expr(expr.left, row, positions)
        right = eval_expr(expr.right, row, positions)
        return {"+": lambda: left + right, "-": lambda: left - right,
                "*": lambda: left * right, "/": lambda: left / right}[expr.op]()
    if isinstance(expr, Case):
        for cond, value in expr.whens:
            if eval_expr(cond, row, positions):
                return eval_expr(value, row, positions)
        return eval_expr(expr.default, row, positions)
    if isinstance(expr, Func):
        if expr.fname == "year":
            import datetime
            days = eval_expr(expr.args[0], row, positions)
            return (datetime.date(1970, 1, 1) + datetime.timedelta(days=days)).year
        if expr.fname == "substring":
            text = eval_expr(expr.args[0], row, positions)
            start = eval_expr(expr.args[1], row, positions)
            length = eval_expr(expr.args[2], row, positions)
            return text[start - 1:start - 1 + length]
    raise TypeError("cannot evaluate %r" % (expr,))


def _reference(schema: TableSchema, rows: List[tuple],
               query: Dict[str, Any]) -> List[tuple]:
    """The expected result: the case as one SQL statement, answered by SQLite."""
    where = " FROM %s WHERE %s" % (schema.name, to_sql(query["pred"]))
    if query["kind"] == "filter":
        sql = "SELECT " + ", ".join(query["cols"] or schema.column_names()) + where
    else:
        items = list(query["group_by"]) + [
            "COUNT(*)" if kind == "count" else "%s(%s)" % (kind.upper(), to_sql(expr))
            for _name, kind, expr in query["aggs"]]
        sql = "SELECT " + ", ".join(items) + where
        if query["group_by"]:
            sql += " GROUP BY " + ", ".join(query["group_by"])
        else:
            # The engine folds zero rows into no row; SQL into one NULL row.
            sql += " HAVING COUNT(*) > 0"
    return oracle({schema.name: (schema, rows)}, sql)


# ------------------------------------------------------------- row comparison
def rows_match(a: List[tuple], b: List[tuple]) -> bool:
    """Order-insensitive row-set equality with float tolerance.

    NDP workers merge partial aggregates in a different order than the host
    path, so float sums may differ in the last bits; everything else must be
    exactly equal.
    """
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(sorted(a, key=repr), sorted(b, key=repr)):
        if len(row_a) != len(row_b):
            return False
        for value_a, value_b in zip(row_a, row_b):
            if isinstance(value_a, float) or isinstance(value_b, float):
                if not math.isclose(value_a, value_b, rel_tol=1e-9, abs_tol=1e-6):
                    return False
            elif value_a != value_b:
                return False
    return True


# ----------------------------------------------------------------- execution
def force_offload_config() -> EngineConfig:
    """Engine tunables that make tiny generated tables actually offload."""
    return EngineConfig(
        ndp_min_table_pages=1,
        ndp_min_table_fraction=0.0,
        ndp_selectivity_threshold=1.1,  # any sampled selectivity qualifies
        ndp_sample_pages=4,
        ndp_parallel_ssdlets=2,
    )


def _query_fiber(site, schema: TableSchema, query: Dict[str, Any]):
    """The case's query on a site's access paths (an Engine, or the fleet's
    ClusterExecutor — same query shape either way)."""
    ref = TableRef(schema.name, query["pred"],
                   list(query["cols"]) if query.get("cols") else None)
    if query["kind"] == "filter":
        rel = yield from site.fetch(ref)
        return rel.rows
    rel = yield from site.scan_aggregate(
        ref, list(query["group_by"]), query["aggs"])
    return rel.rows


def _execute(host, site, schema: TableSchema, query: Dict[str, Any]):
    """(rows, None) on success, (None, error) on a typed device failure;
    ``host`` (a System or a ShardedFleet) runs the site's fiber."""
    site.begin_query()
    try:
        return host.run_fiber(_query_fiber(site, schema, query)), None
    except DeviceError as exc:
        return None, exc


# -------------------------------------------------------------------- driver
@dataclass
class CaseResult:
    seed: int
    faults: bool
    outcome: str  # "match" | "mismatch" | "device-error"
    detail: str
    repro: str
    offloaded: bool
    fault_counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Case:
    """The common prefix every arm draws first from the seed's stream."""

    rng: random.Random  # positioned after the prefix, for arm-specific draws
    ssd_config: Any
    schema: TableSchema
    rows: List[tuple]
    query: Dict[str, Any]
    plan: Any


def _draw_case(seed: int) -> _Case:
    rng = random.Random(seed)
    ssd_config = strategies.gen_ssd_config(rng)
    schema, rows = strategies.gen_table(rng)
    query = strategies.gen_query(rng, schema, rows)
    # The fault plan is drawn even by arms that do not use it: that keeps
    # the rng stream (and so every later draw) seed-stable across arms.
    plan = strategies.gen_fault_plan(rng)
    return _Case(rng, ssd_config, schema, rows, query, plan)


def _single_device(case: _Case, *modes: ExecutionMode):
    """One System holding the case's table, plus an engine per mode."""
    system = System(ssd_config=case.ssd_config)
    db = Database(system.fs)
    db.load_table(case.schema, case.rows)
    return (system,) + tuple(create_engine(system, db, mode, force_offload_config())
                             for mode in modes)


def _judge(blank: CaseResult, test, base, expected: List[tuple],
           tag: str = "", match_detail: str = "") -> CaseResult:
    """The verdict ladder shared by the two-arm cases: a typed device error
    on either arm, then test ≠ base, then base ≠ reference, else match.

    ``test`` and ``base`` are ``(name, rows, error)``; ``blank`` carries the
    fields every verdict shares.
    """
    failed = ["%s: %s" % (name, error)
              for name, _rows, error in (base, test) if error is not None]
    if failed:
        return replace(blank, outcome="device-error", detail="; ".join(failed))
    for (left_name, left, _), (right_name, right, _) in (
            (test, base), (base, ("reference", expected, None))):
        if not rows_match(left, right):
            detail = ("%s%s/%s disagree: %d vs %d rows | %s"
                      % (tag, left_name, right_name, len(left), len(right),
                         blank.repro))
            return replace(blank, outcome="mismatch", detail=detail)
    return replace(blank, outcome="match", detail=match_detail)


def run_case(seed: int, faults: bool = True) -> CaseResult:
    """Generate, execute and judge one differential case."""
    case = _draw_case(seed)
    system, host_engine, ndp_engine = _single_device(
        case, ExecutionMode.CONV, ExecutionMode.BISCUIT)
    injector = None
    if faults:
        injector = FaultInjector(case.plan)
        system.device.attach_fault_injector(injector)

    expected = _reference(case.schema, case.rows, case.query)
    host = _execute(system, host_engine, case.schema, case.query)
    ndp = _execute(system, ndp_engine, case.schema, case.query)
    blank = CaseResult(seed, faults, "", "", strategies.repro_line(seed, faults),
                       ndp_engine.ndp_scans > 0,
                       injector.counters() if injector else {})
    return _judge(blank, ("ndp",) + ndp, ("host",) + host, expected)


def _install_companion(system: System, schedule: Dict[str, Any]):
    """Materialize the companion app's input once; return a fiber factory."""
    if schedule["companion"] == "string_search":
        path = "/interleave/web.log"
        install_weblog(system, path, schedule["log_bytes"],
                       schedule["keyword"], seed=schedule["seed"])
        return lambda: biscuit_string_search(
            system, path, schedule["keyword"], num_searchers=2)
    graph = build_exact_graph(system, "/interleave/graph.bin",
                              schedule["nodes"], seed=schedule["seed"])
    return lambda: biscuit_pointer_chase(
        system, graph, schedule["walks"], schedule["hops"])


def _execute_interleaved(system: System, engine: Engine, schema: TableSchema,
                         query: Dict[str, Any], companion_factory,
                         schedule: Dict[str, Any]):
    """Run the query fiber concurrently with the companion application."""
    engine.begin_query()
    sim = system.sim

    def staggered(fiber, delay_us: float):
        if delay_us:
            yield sim.timeout(int(delay_us * 1000))
        value = yield from fiber
        return value

    stagger_us = schedule["stagger_us"]
    query_delay_us = 0.0 if schedule["query_first"] else stagger_us
    companion_delay_us = stagger_us if schedule["query_first"] else 0.0
    try:
        query_proc = sim.process(
            staggered(_query_fiber(engine, schema, query), query_delay_us),
            name="interleaved-query")
        companion_proc = sim.process(
            staggered(companion_factory(), companion_delay_us),
            name="interleaved-companion")
        sim.run(all_of(sim, [query_proc, companion_proc]))
        return query_proc.value, None
    except DeviceError as exc:
        return None, exc


def run_case_interleaved(seed: int) -> CaseResult:
    """One fault-free case, with a companion SSDlet app sharing the device.

    The seed derives the *same* geometry/table/query as ``run_case(seed)``
    (the schedule is drawn after the common prefix), so a ``match`` outcome
    here proves the interleaved run returns exactly what the solo run does:
    both equal the simulator-free reference.  ``detail`` names the companion
    so sweeps can assert both kinds were exercised.
    """
    case = _draw_case(seed)
    schedule = strategies.gen_schedule(case.rng)
    system, host_engine, ndp_engine = _single_device(
        case, ExecutionMode.CONV, ExecutionMode.BISCUIT)
    companion_factory = _install_companion(system, schedule)

    expected = _reference(case.schema, case.rows, case.query)
    host = _execute_interleaved(system, host_engine, case.schema, case.query,
                                companion_factory, schedule)
    ndp = _execute_interleaved(system, ndp_engine, case.schema, case.query,
                               companion_factory, schedule)
    blank = CaseResult(seed, False, "", "", strategies.repro_line(seed, False),
                       ndp_engine.ndp_scans > 0)
    return _judge(blank, ("ndp",) + ndp, ("host",) + host, expected,
                  tag="interleaved ",
                  match_detail="interleaved with %s" % schedule["companion"])


# ------------------------------------------------------------ fast-path arm
def _run_fastpath_arm(seed: int, faults: bool, fast: bool):
    """One full run_case-shaped execution with the fused fast path forced
    on or off.  Returns everything the two arms must agree on, plus the
    fusion counters (meaningful on the fast arm only)."""
    case = _draw_case(seed)
    case.ssd_config.sim_fast_path = fast
    system, host_engine, ndp_engine = _single_device(
        case, ExecutionMode.CONV, ExecutionMode.BISCUIT)
    if faults:
        system.device.attach_fault_injector(FaultInjector(case.plan))

    host_rows, host_error = _execute(system, host_engine, case.schema,
                                     case.query)
    ndp_rows, ndp_error = _execute(system, ndp_engine, case.schema, case.query)
    fused = sum(ch.fastpath.fused_pages for ch in system.device.nand.channels)
    return {
        "host_rows": host_rows,
        "host_error": (type(host_error).__name__, str(host_error))
                      if host_error is not None else None,
        "ndp_rows": ndp_rows,
        "ndp_error": (type(ndp_error).__name__, str(ndp_error))
                     if ndp_error is not None else None,
        "now": system.sim.now,
        "events": system.sim.events_processed,
        "fused_pages": fused,
        "offloaded": ndp_engine.ndp_scans > 0,
    }


def run_case_fastpath(seed: int, faults: bool = True) -> CaseResult:
    """One case run twice — fused fast path on vs off — judged for exact
    equivalence: identical rows (order-sensitive), identical typed errors,
    and the same final ``sim.now`` in both arms.

    This is the determinism gate for :mod:`repro.sim.fastpath`: the fast
    path claims bit-identical timing, so anything short of exact equality
    is a ``mismatch``.  ``fault_counters`` reports both arms' processed
    event counts and the fast arm's fused-page total, letting sweeps assert
    that fusion actually engaged (an always-materializing fast path would
    pass the equality check without testing anything).
    """
    line = strategies.repro_line(seed, faults)
    fast_arm = _run_fastpath_arm(seed, faults, fast=True)
    slow_arm = _run_fastpath_arm(seed, faults, fast=False)
    counters = {
        "fast_events": fast_arm["events"],
        "slow_events": slow_arm["events"],
        "fused_pages": fast_arm["fused_pages"],
    }
    offloaded = fast_arm["offloaded"] and slow_arm["offloaded"]
    for field_name in ("host_rows", "ndp_rows", "host_error", "ndp_error",
                      "now"):
        if fast_arm[field_name] != slow_arm[field_name]:
            detail = ("fast/slow arms disagree on %s: %r vs %r | %s"
                      % (field_name, fast_arm[field_name],
                         slow_arm[field_name], line))
            return CaseResult(seed, faults, "mismatch", detail, line,
                              offloaded, counters)
    return CaseResult(seed, faults, "match", "", line, offloaded, counters)


def run_fastpath_sweep(seeds, faults: bool = True) -> List[CaseResult]:
    """One fast-vs-slow case per seed (failures carry their repro line)."""
    return [run_case_fastpath(seed, faults=faults) for seed in seeds]


# ------------------------------------------------------------ perturbed arm
def run_case_perturbed(seed: int, faults: bool = False) -> CaseResult:
    """One case run under the interleaving sanitizer's perturbation mode.

    The whole ``run_case(seed)`` workload executes twice — once recording
    same-timestamp access footprints, once with pop order *reversed* inside
    every provably order-free batch (:func:`repro.analysis.races.
    check_workload`).  Any footprint conflict between tied events, or any
    divergence of the trace digest or the case verdict under reversal, is a
    ``mismatch``: the engine's "ties run in schedule order" contract held
    only by accident.  ``fault_counters`` reports how hard the perturbation
    actually bit (batches reversed) so sweeps can assert it engaged.
    """
    from repro.analysis.races import check_workload

    line = strategies.repro_line(seed, faults)
    report = check_workload(lambda: run_case(seed, faults=faults))
    inner: CaseResult = report.result
    counters = {
        "batches": report.batches,
        "reversible": report.reversible,
        "reversed": report.reversed_batches,
        "hazards": len(report.hazards),
    }
    if not report.clean:
        detail = ("perturbed tie-breaking diverged: %s | %s"
                  % ("; ".join(report.render().splitlines()), line))
        return CaseResult(seed, faults, "mismatch", detail, line,
                          inner.offloaded if inner else False, counters)
    if inner.outcome != "match":
        return CaseResult(seed, faults, inner.outcome,
                          "under perturbation: %s" % inner.detail, line,
                          inner.offloaded, counters)
    return CaseResult(seed, faults, "match",
                      "perturbed %d/%d order-free batches"
                      % (report.reversed_batches, report.batches),
                      line, inner.offloaded, counters)


def run_perturbed_sweep(seeds, faults: bool = False) -> List[CaseResult]:
    """One perturbed case per seed (failures carry their repro line)."""
    return [run_case_perturbed(seed, faults=faults) for seed in seeds]


# ------------------------------------------------------------ resilient arm
def run_case_resilient(seed: int) -> CaseResult:
    """One seeded case executed through the resilient scan driver under an
    active fault storm, judged byte-for-byte against the fault-free
    SQLite reference.

    The seed derives the *same* geometry/table/query as ``run_case(seed)``
    (storms and the replica layout are drawn after the common prefix).  The
    table is replicated on a second device; the primary gets an
    error-capable storm (uncorrectable bursts, stalls, possibly a whole-
    device crash window), the replica only latency faults — so checkpointed
    retry/failover always has a copy that can answer, and the only
    acceptable outcome is ``match``.
    """
    case = _draw_case(seed)
    schema, rows, query = case.schema, case.rows, case.query
    primary_storm = strategies.gen_fault_storm(case.rng, errors=True)
    replica_storm = strategies.gen_fault_storm(case.rng, errors=False)
    layout = strategies.gen_replica_layout(case.rng)
    line = strategies.repro_line(seed, True)

    system = System(ssd_config=case.ssd_config,
                    num_ssds=layout["num_devices"])
    databases = []
    for fs in system.filesystems:
        db = Database(fs)
        db.load_table(schema, rows)
        databases.append(db)
    storage = databases[0].table(schema.name)
    injector = StormInjector(system.sim, primary_storm)
    system.devices[layout["primary"]].attach_fault_injector(injector)
    system.devices[1 - layout["primary"]].attach_fault_injector(
        StormInjector(system.sim, replica_storm))

    driver = ResilientScanDriver(
        system,
        policy=RetryPolicy(
            retry_limit=layout["retry_limit"],
            backoff_us=layout["backoff_us"],
            checkpoint_pages=layout["checkpoint_pages"],
        ),
        hedge=(HedgePolicy(default_us=layout["hedge_default_us"])
               if layout["hedge"] else None),
        recovery=RecoveryTracker(system.sim),
    )

    positions = {name: i for i, name in enumerate(schema.column_names())}
    predicate = kernels.select(positions, query["pred"])
    if query["kind"] == "filter":
        out_cols = query["cols"] or schema.column_names()
    else:
        out_cols = schema.column_names()  # aggregate host-side, post-scan
    spec = ScanSpec(
        path=storage.path,
        page_rows=lambda page_no: databases[0].read_page_rows(storage, page_no),
        prefilter=predicate,
        predicate=predicate,
        project=kernels.select(positions, None, [Col(c) for c in out_cols]),
        page_size=storage.page_size,
        num_pages=storage.num_pages,
        workers=2,
    )
    expected = _reference(schema, rows, query)

    def final_counters() -> Dict[str, int]:
        counters = dict(injector.counters())
        counters.update(("driver_%s" % k, v)
                        for k, v in sorted(driver.counters().items()))
        return counters

    try:
        survivors = system.run_fiber(
            driver.scan(spec, primary=layout["primary"]),
            name="resilient-case-%d" % seed)
    except DeviceError as exc:
        return CaseResult(seed, True, "device-error",
                          "resilient scan gave up: %s | %s" % (exc, line),
                          line, True, final_counters())
    counters = final_counters()
    if query["kind"] == "filter":
        got = survivors
    else:
        # Surviving full rows already satisfy the predicate; the reference's
        # aggregate over them is the aggregate's answer.
        got = _reference(schema, survivors, query)
    if not rows_match(got, expected):
        detail = ("resilient/reference disagree: %d vs %d rows | %s"
                  % (len(got), len(expected), line))
        return CaseResult(seed, True, "mismatch", detail, line, True, counters)
    return CaseResult(seed, True, "match", "", line, True, counters)


def run_resilient_sweep(seeds) -> List[CaseResult]:
    """One resilient case per seed (failures carry their repro line)."""
    return [run_case_resilient(seed) for seed in seeds]


# -------------------------------------------------------------- sharded arm
def run_case_sharded(seed: int) -> CaseResult:
    """One seeded case run across the sharded fleet, judged row-identical
    (after canonical ordering) against the single-device BISCUIT arm and
    the SQLite reference.

    The seed derives the *same* geometry/table/query as ``run_case(seed)``
    (the cluster layout is drawn after the common prefix).  The layout
    picks the fleet shape, the partition key and kind (hash or quantile
    range), whether the scatter executor hedges, and — about a third of
    the time — crashes one shard's primary node before the query runs.
    Replication is 2 and only one node ever goes down, so every shard
    keeps an alive copy and the only acceptable outcome, crash or not, is
    ``match``: replica failover must be answer-invisible.
    """
    from repro.cluster import ClusterExecutor, ShardedFleet

    case = _draw_case(seed)
    schema, rows, query = case.schema, case.rows, case.query
    layout = strategies.gen_cluster_layout(case.rng, schema, rows)

    # Single-device arm: the same fault-free BISCUIT execution run_case uses.
    system, ndp_engine = _single_device(case, ExecutionMode.BISCUIT)
    expected = _reference(schema, rows, query)
    ndp = _execute(system, ndp_engine, schema, query)

    # Sharded arm: the same rows spread over the fleet, same offload knobs.
    fleet = ShardedFleet(
        num_nodes=layout["num_nodes"],
        num_shards=layout["num_shards"],
        replication=layout["replication"],
        ssd_config=case.ssd_config,
        engine_config=force_offload_config(),
    )
    fleet.load_sharded(schema, rows, key=layout["key"],
                       kind=layout["kind"], bounds=layout["bounds"])
    crashed_node = -1
    if layout["crash_primary"]:
        crashed_node = fleet.replica_map.nodes_for(layout["crash_shard"])[0]
        fleet.crash_node(crashed_node)
    executor = ClusterExecutor(
        fleet,
        hedge=(HedgePolicy(default_us=layout["hedge_default_us"])
               if layout["hedge"] else None),
    )
    sharded = _execute(fleet, executor, schema, query)

    detail = ""
    if layout["crash_primary"]:
        detail = ("crashed node%d (primary of shard %d)"
                  % (crashed_node, layout["crash_shard"]))
    blank = CaseResult(
        seed, layout["crash_primary"], "", "",
        strategies.repro_line(seed, layout["crash_primary"]),
        ndp_engine.ndp_scans > 0 and fleet.ndp_scans() > 0,
        {
            "shards": fleet.num_shards,
            "max_fan_out": executor.max_fan_out,
            "shard_rpcs": executor.shard_rpcs,
            "retries": executor.retries,
            "failovers": executor.failovers,
            "crashed_node": crashed_node,
        })
    return _judge(blank, ("sharded",) + sharded, ("ndp",) + ndp, expected,
                  match_detail=detail)


def run_sharded_sweep(seeds) -> List[CaseResult]:
    """One sharded case per seed (failures carry their repro line)."""
    return [run_case_sharded(seed) for seed in seeds]


def replay_sharded(line: str) -> CaseResult:
    """Re-run the exact sharded case a ``REPRO:`` line came from."""
    seed, _faults = strategies.parse_repro(line)
    return run_case_sharded(seed)


def replay_resilient(line: str) -> CaseResult:
    """Re-run the exact resilient case a ``REPRO:`` line came from."""
    seed, _faults = strategies.parse_repro(line)
    return run_case_resilient(seed)


def replay(line: str) -> CaseResult:
    """Re-run the exact case a ``REPRO:`` line came from."""
    seed, faults = strategies.parse_repro(line)
    return run_case(seed, faults=faults)


def run_sweep(seeds, faults: bool = True) -> List[CaseResult]:
    """Run one case per seed; failures carry their repro line in ``detail``."""
    return [run_case(seed, faults=faults) for seed in seeds]


def summarize(results: List[CaseResult]) -> Dict[str, Any]:
    """Aggregate sweep statistics (handy for assertions and CI logs)."""
    outcomes: Dict[str, int] = {}
    for result in results:
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    return {
        "cases": len(results),
        "outcomes": outcomes,
        "offloaded": sum(1 for r in results if r.offloaded),
        "mismatches": [r.detail for r in results if r.outcome == "mismatch"],
        "faults_injected": sum(
            sum(r.fault_counters.values()) - r.fault_counters.get("reads_seen", 0)
            for r in results if r.fault_counters),
    }
