"""Differential harness: NDP pushdown vs host-only vs a SQLite reference.

One seeded case = one randomized SSD geometry + table + query + fault plan
(all derived from a single integer; see :mod:`repro.testing.strategies`).
The ``ndp`` arm runs the case through three executions:

* **reference** — the case printed as SQL (``to_sql``) and answered by
  stdlib ``sqlite3`` over the raw rows (:mod:`repro.db.reference`), with no
  simulator involved (so faults cannot touch it),
* **host** — the CONV engine (everything crosses the host interface),
* **ndp** — the BISCUIT engine with offload thresholds forced open, so a
  matcher-amenable predicate really runs as ScanFilter/ScanAggregate
  SSDlets on the device.

The other rows of :data:`ARMS` run the same case another way
(``interleaved``, ``fastpath``, ``inline``, ``perturbed``, ``resilient``,
``sharded``), and ``fastshape`` runs a drawn serve mix or Fig. 7 shape
with the fused fast path on and off;
:func:`run_case`, :func:`run_sweep` and :func:`replay` take the arm by name.

Outcomes: ``match`` (all executions agree), ``mismatch`` (a correctness
bug — the repro line, which names the arm, replays it), or
``device-error`` (injected unrecoverable faults killed a path with a
*typed* :class:`repro.core.errors.DeviceError`, which is the propagation
contract under test; an untyped exception escapes the harness and fails
the suite).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List

from repro.apps.pointer_chase import biscuit_pointer_chase, build_exact_graph
from repro.apps.string_search import biscuit_string_search, install_weblog
from repro.core.errors import DeviceError
from repro.db import kernels
from repro.db.catalog import TableSchema
from repro.db.executor import EngineConfig, ExecutionMode, TableRef
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
from repro.serve import MIXES, JobManager, LoadGenerator, install_serve_datasets
from repro.sim.engine import Simulator, all_of
from repro.sim.units import MIB
from repro.ssd.config import SSDConfig
from repro.testing import strategies
from repro.testing.faults import FaultInjector, StormInjector

__all__ = [
    "ARMS", "CaseResult", "run_case", "run_sweep", "replay",
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
    exactly equal.  Both sides are sorted with numbers by value, so a sum
    that lands either side of a power of ten (``10.0`` against
    ``9.999999999999998``) pairs with its twin; rows that near-tied floats
    still misalign are matched greedily among themselves.
    """
    if len(a) != len(b):
        return False
    left: List[tuple] = []
    right: List[tuple] = []
    for row_a, row_b in zip(sorted(a, key=_row_key), sorted(b, key=_row_key)):
        if not _rows_close(row_a, row_b):
            left.append(row_a)
            right.append(row_b)
    for row_a in left:
        for index, row_b in enumerate(right):
            if _rows_close(row_a, row_b):
                del right[index]
                break
        else:
            return False
    return True


def _row_key(row: tuple) -> tuple:
    """Numbers sort by value (``3`` ties ``3.0``), anything else by type and
    ``repr`` after every number."""
    return tuple(
        (0, value) if isinstance(value, (int, float))
        else (1, type(value).__name__, repr(value))
        for value in row)


def _rows_close(row_a: tuple, row_b: tuple) -> bool:
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


def _staggered(sim, fiber, delay_us: float):
    if delay_us:
        yield sim.timeout(int(delay_us * 1000))
    return (yield from fiber)


def _execute(host, site, schema: TableSchema, query: Dict[str, Any],
             companion=None, schedule=None):
    """(rows, None) on success, (None, error) on a typed device failure;
    ``host`` (a System or a ShardedFleet) runs the site's fiber — alongside
    a fresh ``companion()`` fiber, launched as ``schedule`` staggers the two,
    when a companion is given."""
    site.begin_query()
    fiber = _query_fiber(site, schema, query)
    try:
        if companion is None:
            return host.run_fiber(fiber), None
        sim, stagger_us = host.sim, schedule["stagger_us"]
        query_us, companion_us = ((0.0, stagger_us) if schedule["query_first"]
                                  else (stagger_us, 0.0))
        query_proc = sim.process(_staggered(sim, fiber, query_us),
                                 name="interleaved-query")
        companion_proc = sim.process(_staggered(sim, companion(), companion_us),
                                     name="interleaved-companion")
        sim.run(all_of(sim, [query_proc, companion_proc]))
        return query_proc.value, None
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


def _single_device(case: _Case, *modes: ExecutionMode, sim=None):
    """One System (on ``sim``, if given) holding the case's table, plus an
    engine per mode."""
    system = System(ssd_config=case.ssd_config, sim=sim)
    db = Database(system.fs)
    db.load_table(case.schema, case.rows)
    return (system,) + tuple(create_engine(system, db, mode, force_offload_config())
                             for mode in modes)


def _judge(blank: CaseResult, expected: List[tuple], *executions,
           match_detail: str = "") -> CaseResult:
    """The verdict ladder: a typed device error on any execution, then each
    execution against the next and the last against the reference, else
    match.

    ``executions`` are ``(name, rows, error)``, the one under test first;
    ``blank`` carries the fields every verdict shares.
    """
    failed = ["%s: %s" % (name, error)
              for name, _rows, error in reversed(executions) if error is not None]
    if failed:
        return replace(blank, outcome="device-error", detail="; ".join(failed))
    chain = executions + (("reference", expected, None),)
    for (left_name, left, _), (right_name, right, _) in zip(chain, chain[1:]):
        if not rows_match(left, right):
            detail = ("%s/%s disagree: %d vs %d rows | %s"
                      % (left_name, right_name, len(left), len(right),
                         blank.repro))
            return replace(blank, outcome="mismatch", detail=detail)
    return replace(blank, outcome="match", detail=match_detail)


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


def _ndp_run(case: _Case, faults: bool, schedule=None, sim=None):
    """The ndp arm's execution: CONV, then BISCUIT, on one device holding
    the case's table (under its fault plan if ``faults``, next to a
    companion app if given a ``schedule``, on ``sim`` if given).  Returns
    ``(system, ndp_engine, injector, host, ndp)``, the last two as
    ``(rows, error)``."""
    system, host_engine, ndp_engine = _single_device(
        case, ExecutionMode.CONV, ExecutionMode.BISCUIT, sim=sim)
    companion = _install_companion(system, schedule) if schedule else None
    injector = None
    if faults:
        injector = FaultInjector(case.plan)
        system.device.attach_fault_injector(injector)
    host, ndp = [_execute(system, engine, case.schema, case.query,
                          companion, schedule)
                 for engine in (host_engine, ndp_engine)]
    return system, ndp_engine, injector, host, ndp


# ---------------------------------------------------------------------- arms
def _ndp_arm(seed: int, faults: bool, interleaved: bool = False) -> CaseResult:
    """NDP vs host vs reference on one device.  With ``interleaved``, each
    query runs next to a companion SSDlet app (drawn by ``gen_schedule``):
    a ``match`` proves concurrency moved time, never bytes, and ``detail``
    names the companion so sweeps can assert both kinds ran."""
    case = _draw_case(seed)
    schedule = strategies.gen_schedule(case.rng) if interleaved else None
    _system, ndp_engine, injector, host, ndp = _ndp_run(case, faults, schedule)
    arm = "interleaved" if interleaved else "ndp"
    blank = CaseResult(seed, faults, "", "",
                       strategies.repro_line(seed, faults, arm),
                       ndp_engine.ndp_scans > 0,
                       injector.counters() if injector else {})
    return _judge(blank, _reference(case.schema, case.rows, case.query),
                  ("ndp",) + ndp, ("host",) + host,
                  match_detail=("interleaved with %s" % schedule["companion"]
                                if interleaved else ""))


def _error_key(error):
    return None if error is None else (type(error).__name__, str(error))


def _exact_run(case: _Case, faults: bool, sim=None) -> Dict[str, Any]:
    """The ndp arm's execution, reduced to what the exact-equivalence arms
    compare and report."""
    system, ndp_engine, _injector, host, ndp = _ndp_run(case, faults, sim=sim)
    return {
        "host_rows": host[0], "ndp_rows": ndp[0],
        "host_error": _error_key(host[1]), "ndp_error": _error_key(ndp[1]),
        "now": system.sim.now,
        "events": system.sim.events_processed,
        "fused_pages": sum(channel.fastpath.fused_pages
                           for channel in system.device.nand.channels),
        "offloaded": ndp_engine.ndp_scans > 0,
    }


def _judge_exact(seed: int, faults: bool, arm: str, names: str,
                 runs: List[Dict[str, Any]],
                 counters: Dict[str, int]) -> CaseResult:
    """Two runs of one case must agree exactly: rows (order-sensitive),
    typed errors and the final ``sim.now``; ``names`` labels the pair in
    a mismatch's detail."""
    first, second = runs
    line = strategies.repro_line(seed, faults, arm)
    blank = CaseResult(seed, faults, "match", "", line,
                       first["offloaded"] and second["offloaded"], counters)
    for name in ("host_rows", "ndp_rows", "host_error", "ndp_error", "now"):
        if first[name] != second[name]:
            return replace(blank, outcome="mismatch", detail=(
                "%s arms disagree on %s: %r vs %r | %s"
                % (names, name, first[name], second[name], line)))
    return blank


def _fastpath_arm(seed: int, faults: bool) -> CaseResult:
    """The ndp arm's execution run twice — fused fast path on, then off —
    judged for exact equivalence: identical rows (order-sensitive),
    identical typed errors, and the same final ``sim.now``.

    This is the determinism gate for :mod:`repro.sim.fastpath`: the fast
    path claims bit-identical timing, so anything short of exact equality
    is a ``mismatch``.  ``fault_counters`` reports both runs' processed
    event counts and the fast run's fused-page total, letting sweeps assert
    that fusion actually engaged (an always-materializing fast path would
    pass the equality check without testing anything).
    """
    runs = []
    for fast in (True, False):
        case = _draw_case(seed)
        case.ssd_config.sim_fast_path = fast
        runs.append(_exact_run(case, faults))
    fast_run, slow_run = runs
    return _judge_exact(seed, faults, "fastpath", "fast/slow", runs, {
        "fast_events": fast_run["events"], "slow_events": slow_run["events"],
        "fused_pages": fast_run["fused_pages"]})


def _inline_arm(seed: int, faults: bool) -> CaseResult:
    """The ndp arm's execution on the default drain, where holds continue
    in line (``Resource.take`` / ``Simulator.advance``), and on the race
    monitor's drain, which never skips a heap entry — judged for exact
    equivalence like ``fastpath``.  ``fault_counters`` reports both runs'
    processed event counts, so sweeps can assert that the default drain
    really skipped entries.
    """
    runs = [_exact_run(_draw_case(seed), faults,
                       sim=Simulator(race_check=monitored))
            for monitored in (False, True)]
    return _judge_exact(seed, faults, "inline", "inline/monitored", runs, {
        "inline_events": runs[0]["events"],
        "monitored_events": runs[1]["events"]})


def _perturbed_arm(seed: int, faults: bool) -> CaseResult:
    """The ndp arm run under the interleaving sanitizer's perturbation mode.

    The whole ndp case executes twice — once recording same-timestamp
    access footprints, once with pop order *reversed* inside every provably
    order-free batch (:func:`repro.analysis.races.check_workload`).  Any
    footprint conflict between tied events, or any divergence of the trace
    digest or the case verdict under reversal, is a ``mismatch``: the
    engine's "ties run in schedule order" contract held only by accident.
    ``fault_counters`` reports how hard the perturbation actually bit
    (batches reversed) so sweeps can assert it engaged.
    """
    from repro.analysis.races import check_workload

    line = strategies.repro_line(seed, faults, "perturbed")
    report = check_workload(lambda: _ndp_arm(seed, faults))
    inner: CaseResult = report.result
    blank = CaseResult(seed, faults, "match", "", line, inner.offloaded, {
                           "batches": report.batches,
                           "reversible": report.reversible,
                           "reversed": report.reversed_batches,
                           "hazards": len(report.hazards),
                       })
    if not report.clean:
        return replace(blank, outcome="mismatch", detail=(
            "perturbed tie-breaking diverged: %s | %s"
            % ("; ".join(report.render().splitlines()), line)))
    if inner.outcome != "match":
        return replace(blank, outcome=inner.outcome, detail=(
            "under perturbation: %s" % inner.detail.replace(inner.repro, line)))
    return replace(blank, detail="perturbed %d/%d order-free batches"
                   % (report.reversed_batches, report.batches))


def _resilient_arm(seed: int, faults: bool) -> CaseResult:
    """One seeded case executed through the resilient scan driver under an
    active fault storm, judged byte-for-byte against the fault-free
    SQLite reference.

    The table is replicated on a second device; the primary gets an
    error-capable storm (uncorrectable bursts, stalls, possibly a whole-
    device crash window), the replica only latency faults — so checkpointed
    retry/failover always has a copy that can answer, and the only
    acceptable outcome is ``match``.  The storms are the arm's fault model,
    so it runs them whatever ``faults`` says and reports ``faults=True``.
    """
    case = _draw_case(seed)
    schema, rows, query = case.schema, case.rows, case.query
    primary_storm = strategies.gen_fault_storm(case.rng, errors=True)
    replica_storm = strategies.gen_fault_storm(case.rng, errors=False)
    layout = strategies.gen_replica_layout(case.rng)

    system = System(ssd_config=case.ssd_config,
                    num_ssds=layout["num_devices"])
    databases = [Database(fs) for fs in system.filesystems]
    for db in databases:
        db.load_table(schema, rows)
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
    out_cols = schema.column_names()  # aggregates fold host-side, post-scan
    if query["kind"] == "filter":
        out_cols = query["cols"] or out_cols
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

    try:
        got = system.run_fiber(driver.scan(spec, primary=layout["primary"]),
                               name="resilient-case-%d" % seed)
        error = None
    except DeviceError as exc:
        got, error = None, exc
    if got is not None and query["kind"] != "filter":
        # Surviving full rows already satisfy the predicate; the reference's
        # aggregate over them is the aggregate's answer.
        got = _reference(schema, got, query)
    counters = dict(injector.counters())
    counters.update(("driver_%s" % k, v)
                    for k, v in sorted(driver.counters().items()))
    blank = CaseResult(seed, True, "", "",
                       strategies.repro_line(seed, True, "resilient"),
                       True, counters)
    return _judge(blank, _reference(schema, rows, query),
                  ("resilient", got, error))


def _sharded_arm(seed: int, faults: bool) -> CaseResult:
    """One seeded case run across the sharded fleet, judged row-identical
    (after canonical ordering) against the single-device BISCUIT execution
    and the SQLite reference.

    The cluster layout is drawn after the common prefix: the fleet shape,
    the partition key and kind (hash or quantile range), whether the
    scatter executor hedges, and — about a third of the time — a crash of
    one shard's primary node before the query runs.  Replication is 2 and
    only one node ever goes down, so every shard keeps an alive copy and
    the only acceptable outcome, crash or not, is ``match``: replica
    failover must be answer-invisible.  The drawn crash is the arm's fault
    model, so ``faults`` is ignored and the result reports whether the
    crash fired.
    """
    from repro.cluster import ClusterExecutor, ShardedFleet

    case = _draw_case(seed)
    schema, rows, query = case.schema, case.rows, case.query
    layout = strategies.gen_cluster_layout(case.rng, schema, rows)

    # Single-device execution: the same fault-free BISCUIT run the ndp arm uses.
    system, ndp_engine = _single_device(case, ExecutionMode.BISCUIT)
    ndp = _execute(system, ndp_engine, schema, query)

    # Sharded execution: the same rows spread over the fleet, same offload knobs.
    fleet = ShardedFleet(
        num_nodes=layout["num_nodes"],
        num_shards=layout["num_shards"],
        replication=layout["replication"],
        ssd_config=case.ssd_config,
        engine_config=force_offload_config(),
    )
    fleet.load_sharded(schema, rows, key=layout["key"],
                       kind=layout["kind"], bounds=layout["bounds"])
    crashed_node, detail = -1, ""
    if layout["crash_primary"]:
        crashed_node = fleet.replica_map.nodes_for(layout["crash_shard"])[0]
        fleet.crash_node(crashed_node)
        detail = ("crashed node%d (primary of shard %d)"
                  % (crashed_node, layout["crash_shard"]))
    executor = ClusterExecutor(
        fleet,
        hedge=(HedgePolicy(default_us=layout["hedge_default_us"])
               if layout["hedge"] else None),
    )
    sharded = _execute(fleet, executor, schema, query)
    blank = CaseResult(
        seed, layout["crash_primary"], "", "",
        strategies.repro_line(seed, layout["crash_primary"], "sharded"),
        ndp_engine.ndp_scans > 0 and fleet.ndp_scans() > 0,
        {
            "shards": fleet.num_shards,
            "max_fan_out": executor.max_fan_out,
            "shard_rpcs": executor.shard_rpcs,
            "retries": executor.retries,
            "failovers": executor.failovers,
            "crashed_node": crashed_node,
        })
    return _judge(blank, _reference(schema, rows, query),
                  ("sharded",) + sharded, ("ndp",) + ndp, match_detail=detail)


class _RecordingManager(JobManager):
    """A JobManager that keeps every job it is offered, rejected or not."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offered: List[Any] = []

    def submit(self, spec):
        decision, job = super().submit(spec)
        self.offered.append(job)
        return decision, job


_SERVE_OUTCOMES = ("submitted", "completed", "rejected", "timeouts",
                   "failed")


def _fastshape_run(workload: Dict[str, Any], fast: bool) -> Dict[str, Any]:
    """One :func:`~repro.testing.strategies.gen_fastpath_workload` draw on
    the paper's device: end time, each job's (or request's) completion ns,
    outcome counters, events processed, fused pages, and the multi-stripe
    channel commands issued."""
    config = SSDConfig(sim_fast_path=fast)
    if workload["kind"] == "serve":
        num_ssds, _horizon_s, profiles = MIXES[workload["mix"]]()
        system = System(num_ssds=num_ssds, ssd_config=config)
        install_serve_datasets(system)
        manager = _RecordingManager(system, [p.tenant() for p in profiles])
        loadgen = LoadGenerator(manager, profiles, seed=workload["seed"],
                                horizon_s=workload["horizon_s"])
        system.run_fiber(loadgen.run(), name="loadgen")
        # Job ids count process-wide; submission order names a job here.
        completions = [(job.spec.tenant, job.state, job.submit_ns,
                        job.finish_ns) for job in manager.offered]
        outcomes = {
            "%s.%s" % (p.name, name): system.metrics.counter(
                "serve.tenant.%s.%s" % (p.name, name)).value
            for p in profiles for name in _SERVE_OUTCOMES}
        outcomes["offered"] = loadgen.jobs_offered
    else:
        # Fig. 7's bandwidth loop (bench.experiments._bandwidth), keeping
        # each request's completion time.  A workload may add QD-1 one-page
        # readers beside it; no draw does, because de-fusion can swap
        # their same-instant ties (tests/sim/test_fastpath_edges.py pins
        # one such schedule).
        system = System(ssd_config=config)
        system.fs.install_synthetic("/bw.dat", 512 * MIB)
        mode = workload["mode"]
        handle = (system.open_host("/bw.dat") if mode == "conv"
                  else system.open_internal("/bw.dat",
                                            use_matcher=(mode == "matcher")))
        points = system.open_internal("/bw.dat")
        size, depth = workload["request_bytes"], workload["queue_depth"]
        requests = max(depth, workload["requests"])
        readers = workload.get("point_readers", 0)
        done = [0] * (requests + readers * requests)

        def worker(first: int):
            for request in range(first, requests, depth):
                offset = (request * size) % (handle.size - size)
                yield from handle.read_timing_only(offset, size)
                done[request] = system.sim.now

        def point_reader(reader: int):
            for index in range(requests):
                page = (reader * 104_729 + index * 7_919) % 131_072
                yield from points.read_timing_only(page * 4096, 4096)
                done[requests * (1 + reader) + index] = system.sim.now

        def program():
            fibers = [system.sim.process(worker(i), name="bw%d" % i)
                      for i in range(depth)]
            fibers += [system.sim.process(point_reader(i), name="pt%d" % i)
                       for i in range(readers)]
            yield all_of(system.sim, fibers)

        system.run_fiber(program())
        completions = done
        outcomes = {"nand_bytes_read": sum(
            device.nand.bytes_read for device in system.devices)}
    channels = [channel for device in system.devices
                for channel in device.nand.channels]
    return {
        "now": system.sim.now, "completions": completions,
        "outcomes": outcomes, "events": system.sim.events_processed,
        "fused_pages": sum(c.fastpath.fused_pages for c in channels),
        "materializations": sum(c.fastpath.materializations
                                for c in channels),
        "multi_stripe": sum(device.controller.stats.coalesced_commands
                            for device in system.devices),
    }


def _fastshape_arm(seed: int, faults: bool) -> CaseResult:
    """A serve mix or a Fig. 7 shape (drawn after the common prefix by
    :func:`~repro.testing.strategies.gen_fastpath_workload`) run with the
    fused fast path on, then off, on the paper's device — judged for exact
    equivalence: the same end time, every job's (or request's) completion
    ns, and the same outcome counters.  Nothing is injected and no query
    runs, so ``faults`` is ignored and the result reports neither faults
    nor an offload.  ``fault_counters`` reports
    both runs' events, the fast run's fused pages and the multi-stripe
    commands issued, so sweeps can assert that fusion engaged wherever a
    multi-stripe command ran.
    """
    workload = strategies.gen_fastpath_workload(_draw_case(seed).rng)
    fast_run, slow_run = (_fastshape_run(workload, fast)
                          for fast in (True, False))
    line = strategies.repro_line(seed, False, "fastshape")
    result = CaseResult(
        seed, False, "match", "", line, False, {
            "fast_events": fast_run["events"],
            "slow_events": slow_run["events"],
            "fused_pages": fast_run["fused_pages"],
            "multi_stripe": slow_run["multi_stripe"]})
    for name in ("now", "completions", "outcomes"):
        if fast_run[name] != slow_run[name]:
            return replace(result, outcome="mismatch", detail=(
                "fast/slow runs of %r disagree on %s: %r vs %r | %s"
                % (workload, name, fast_run[name], slow_run[name], line)))
    return result


#: The differential arms by name: each draws the seed's case (one common
#: prefix, so every arm queries the same geometry/table/query) and runs and
#: judges it its own way.  ``faults`` turns the case's fault plan on;
#: ``resilient`` and ``sharded`` bring their own fault model instead, and
#: ``fastshape`` injects none.
ARMS: Dict[str, Callable[[int, bool], CaseResult]] = {
    "ndp": _ndp_arm,
    "interleaved": partial(_ndp_arm, interleaved=True),
    "fastpath": _fastpath_arm,
    "inline": _inline_arm,
    "perturbed": _perturbed_arm,
    "resilient": _resilient_arm,
    "sharded": _sharded_arm,
    "fastshape": _fastshape_arm,
}


def run_case(seed: int, faults: bool = True, arm: str = "ndp") -> CaseResult:
    """Generate, execute and judge one differential case on one arm."""
    return ARMS[arm](seed, faults)


def run_sweep(seeds, faults: bool = True, arm: str = "ndp") -> List[CaseResult]:
    """Run one case per seed; failures carry their repro line in ``detail``."""
    return [run_case(seed, faults, arm) for seed in seeds]


def replay(line: str) -> CaseResult:
    """Re-run the exact case (and arm) a ``REPRO:`` line came from."""
    seed, faults, arm = strategies.parse_repro(line)
    return run_case(seed, faults, arm)


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
        # Only the injectors' *_injected counts are faults; the other arms'
        # counters (events, fused pages, fleet and driver totals) are not.
        "faults_injected": sum(
            value for r in results for key, value in r.fault_counters.items()
            if key.endswith("_injected")),
    }
