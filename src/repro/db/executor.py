"""The MiniDB execution engine.

Cost model (host side, calibrated against the paper's Conv measurements —
495 s for the Fig. 8 Query 1 full scan of SF-100 lineitem ≈ 0.8 µs/row):

* sequential scans: readahead I/O overlapped with per-row host CPU,
* index-nested-loop probes: per-key data-page fetches through an LRU buffer
  pool (this is where MariaDB's smallest-table-first join order pays its
  I/O amplification),
* hash joins / aggregation / sort: host CPU per row.

Engine modes:

* ``CONV`` — everything above, all data crossing the host interface.
* ``BISCUIT`` — scans go through the NDP planner: offloadable, selective
  filters run as ScanFilter SSDlets on the device (matcher prefilter at
  wire speed + software refinement of matched pages), and the NDP-filtered
  table is placed first in the join order (Section V-C).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import add, itemgetter, or_
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, Union

from repro.db import kernels
from repro.db.catalog import TableSchema
from repro.db.expr import Col, Expr
from repro.db.storage import Database, TableStorage, decode_rows
from repro.host.platform import System
from repro.sim.engine import all_of

__all__ = ["AggPlan", "Engine", "EngineConfig", "ExecutionMode", "PlanStep",
           "Rel", "TableRef", "sort_rows"]


class ExecutionMode(enum.Enum):
    CONV = "conv"
    BISCUIT = "biscuit"


#: Host cost model (see the module docstring for calibration).
HOST_ROW_US = 0.8  # filter/project one row on the host
HOST_JOIN_ROW_US = 0.35  # hash-probe / build one row
HOST_AGG_ROW_US = 0.3  # aggregate one row
PROBE_OVERHEAD_US = 2.0  # index lookup bookkeeping per probe
BUFFER_POOL_FRACTION = 0.02  # of total DB pages
MIN_POOL_PAGES = 64
SCAN_CHUNK_PAGES = 256  # readahead unit for host scans


@dataclass
class EngineConfig:
    """Engine tunables: the planner's offload heuristic and the ablations."""

    # NDP offload heuristic (planner):
    ndp_selectivity_threshold: float = 0.25  # max page-fraction to offload
    ndp_min_table_pages: int = 64  # absolute "table too small" cutoff
    ndp_min_table_fraction: float = 0.05  # of total DB pages (small-table cutoff)
    ndp_sample_pages: int = 48  # pages sampled for the selectivity estimate
    ndp_parallel_ssdlets: int = 4
    # INL-vs-scan switch: the optimizer keeps index nested loops until the
    # estimated probe-page count exceeds this multiple of a full table scan.
    # MariaDB-era optimizers notoriously underestimate random-I/O cost, so
    # the factor is large — which is precisely what produces the paper's
    # Q14-style pathology (Section V-C, "block nested loop" discussion).
    inl_scan_factor: float = 30.0
    # Ablation knobs (DESIGN.md, "design choices worth ablating"):
    ndp_join_order: bool = True  # place the NDP-filtered table first
    ndp_use_matcher: bool = True  # False = device software scan (Section VI)
    # Extension (beyond the paper): push GROUP BY/aggregates into the
    # ScanAggregate SSDlet so only aggregate states cross the interface.
    ndp_pushdown_aggregate: bool = True


class Rel:
    """A materialized intermediate relation: column names + row tuples."""

    __slots__ = ("columns", "rows", "_positions")

    def __init__(self, columns: Sequence[str], rows: List[tuple]):
        self.columns = list(columns)
        self.rows = rows
        self._positions = {name: i for i, name in enumerate(self.columns)}

    @property
    def positions(self) -> Dict[str, int]:
        return self._positions

    def position(self, column: str) -> int:
        return self._positions[column]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return "Rel(%s, %d rows)" % (",".join(self.columns), len(self.rows))


class AggPlan:
    """One grouped aggregate, planned once: the state layout, the fold that
    fills it, how partials merge and how merged states become rows.

    ``aggs`` entries are (output name, kind, expr) with kind one of
    sum/count/avg/min/max/count_distinct (expr unused for count).  States
    are ``{group key: [state per slot]}`` in the format the ScanAggregate
    SSDlet ships (:func:`repro.db.kernels.fold`), so a partial means the
    same wherever it was reduced — on a device, on a shard's host after a
    fallback scan, or over an already materialized relation.
    """

    #: How two non-empty states of one slot combine.
    _COMBINE = {"sum": add, "count": add, "min": min, "max": max,
                "count_distinct": or_}

    def __init__(self, group_by: Sequence[str],
                 aggs: Sequence[Tuple[str, str, Optional[Expr]]]):
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        #: (name, kind, expr) per state slot: avg is a sum and a count slot.
        self.slots: List[Tuple[str, str, Optional[Expr]]] = []
        #: per output aggregate, the index of its first slot.
        self._first_slot: List[int] = []
        for name, kind, expr in self.aggs:
            self._first_slot.append(len(self.slots))
            if kind == "avg":
                self.slots += [(name + "_sum", "sum", expr),
                               (name + "_count", "count", None)]
            else:
                self.slots.append((name, kind, expr))
        #: False when a state is a value set (count_distinct): shipping it
        #: would defeat the pushdown, so such a plan folds host-side only.
        self.device_ok = all(kind != "count_distinct"
                             for _name, kind, _expr in self.slots)

    def fold(self, positions: Dict[str, int]):
        """``kernel(states, rows) -> states`` over rows laid out as
        ``positions`` — the same kernel on the device and on the host."""
        return kernels.fold(
            positions, [positions[c] for c in self.group_by], self.slots)

    def merge(self, total: dict, partial: dict) -> None:
        """Combine ``partial`` into ``total`` in place (None = no row yet)."""
        for key, state in partial.items():
            existing = total.get(key)
            if existing is None:
                total[key] = list(state)
                continue
            for slot, (_name, kind, _expr) in enumerate(self.slots):
                if state[slot] is None:
                    continue
                if existing[slot] is None:
                    existing[slot] = state[slot]
                else:
                    existing[slot] = self._COMBINE[kind](
                        existing[slot], state[slot])

    def finalize(self, states: dict) -> Rel:
        """Merged states as the output relation: averages recomposed, empty
        counts 0; group order is state-insertion order."""
        out_rows = []
        for key, state in states.items():
            values = []
            for (_name, kind, _expr), slot in zip(self.aggs, self._first_slot):
                value = state[slot]
                if kind == "avg":
                    count = state[slot + 1]
                    value = value / count if count else 0.0
                elif kind == "count":
                    value = value or 0
                elif kind == "count_distinct":
                    value = len(value)
                values.append(value)
            out_rows.append(tuple(key) + tuple(values))
        return Rel(self.group_by + [name for name, _, _ in self.aggs], out_rows)

    def run(self, rel: Rel) -> Rel:
        """Pure grouped aggregation of a materialized relation (no timing)."""
        return self.finalize(self.fold(rel.positions)({}, rel.rows))


def sort_rows(rows: List[tuple], key_plan: Sequence[Tuple[int, bool]],
              limit: Optional[int] = None) -> List[tuple]:
    """Stable sort by (position, descending?) keys, first key most
    significant, then the optional cut.  Over sorted runs laid end to end
    this *is* their k-way merge, ties going to the earlier run."""
    rows = list(rows)
    for position, descending in reversed(key_plan):
        rows.sort(key=itemgetter(position), reverse=descending)
    return rows if limit is None else rows[:limit]


@dataclass
class TableRef:
    """A lazy reference to a base table with an optional filter/projection."""

    name: str
    pred: Optional[Expr] = None
    cols: Optional[List[str]] = None


@dataclass
class PlanStep:
    """One base-table access of the running query, recorded as it runs
    (:attr:`Engine.plan`, which EXPLAIN renders).

    ``access`` is the method as EXPLAIN prints it — ``SeqScan``,
    ``NDPScan``, ``IndexProbe(<key>)``, the scan suffixed ``+HashJoin`` or
    ``+CrossJoin`` when it was joined in afterwards; ``decision`` is the
    planner's when it was asked; ``kernels`` are the generated kernels the
    access ran, keyed by label (a ``fold`` is the grouped aggregate's).
    """

    ref: TableRef
    access: str
    decision: Any = None
    kernels: Dict[str, Any] = field(default_factory=dict)


class _BufferPool:
    """LRU page cache of decoded rows, keyed by (table, page_no)."""

    def __init__(self, capacity_pages: int):
        self.capacity = max(1, capacity_pages)
        self._entries: "OrderedDict[Tuple[str, int], List[tuple]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[str, int]) -> Optional[List[tuple]]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, key: Tuple[str, int], rows: List[tuple]) -> None:
        self._entries[key] = rows
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class RelOps:
    """Row operators over materialized relations, charged to the owner's CPU.

    The bodies exist once; a *site* (:class:`Engine`, the fleet's
    ``ClusterExecutor``) mixes them in and says which CPU pays by defining
    ``_charge``.
    """

    def _charge(self, duration_us: float) -> Generator:
        """Fiber: occupy the CPU this site's post-processing runs on."""
        raise NotImplementedError

    def filter(self, rel: Rel, pred: Expr) -> Generator:
        """Fiber: filter a materialized relation."""
        keep = kernels.select(rel.positions, pred)
        yield from self._charge(len(rel) * HOST_ROW_US)
        return Rel(rel.columns, keep(rel.rows))

    def project(self, rel: Rel, exprs: List[Tuple[str, Expr]]) -> Generator:
        """Fiber: compute named expressions per row."""
        compute = kernels.select(rel.positions, None, [expr for _, expr in exprs])
        yield from self._charge(len(rel) * HOST_ROW_US)
        return Rel([name for name, _ in exprs], compute(rel.rows))

    def aggregate(
        self,
        rel: Rel,
        group_by: List[str],
        aggs: List[Tuple[str, str, Optional[Expr]]],
    ) -> Generator:
        """Fiber: grouped aggregation (``aggs`` as for :class:`AggPlan`)."""
        yield from self._charge(len(rel) * HOST_AGG_ROW_US)
        return AggPlan(group_by, aggs).run(rel)

    def sort(self, rel: Rel, keys: List[Tuple[str, bool]], limit: Optional[int] = None) -> Generator:
        """Fiber: order by (column, descending?) pairs, optional limit."""
        yield from self._charge(len(rel) * HOST_AGG_ROW_US)
        return Rel(rel.columns, sort_rows(
            rel.rows, [(rel.position(c), d) for c, d in keys], limit))


class Engine(RelOps):
    """One query engine bound to a database and a platform."""

    def __init__(
        self,
        system: System,
        db: Database,
        mode: ExecutionMode = ExecutionMode.CONV,
        config: Optional[EngineConfig] = None,
    ):
        self.system = system
        self.db = db
        self.mode = mode
        self.config = config or EngineConfig()
        total_pages = sum(t.num_pages for t in db.tables.values())
        self.pool = _BufferPool(
            max(MIN_POOL_PAGES, int(total_pages * BUFFER_POOL_FRACTION)))
        # Whole-table decoded-page cache: value-level only (saves wall-clock
        # re-decoding; simulated timing is charged regardless).
        self._decoded: Dict[str, List[List[tuple]]] = {}
        # Monotone query ordinal (trace scopes: "db/q<N>").
        self.query_seq = 0
        # Per-query statistics (reset with begin_query()).
        self.host_pages_read = 0
        self.ndp_result_bytes = 0
        self.ndp_scans = 0
        #: The running query's table accesses, in the order they started.
        self.plan: List[PlanStep] = []
        # Lazily-initialized NDP machinery (set by repro.db.ndp on first use).
        self.ndp_context = None
        self.planner = None  # set by repro.db.planner.attach_planner

    # -------------------------------------------------------------- lifecycle
    def begin_query(self, cold: bool = True) -> None:
        """Reset per-query statistics (and optionally the buffer pool)."""
        self.query_seq += 1
        self.host_pages_read = 0
        self.ndp_result_bytes = 0
        self.ndp_scans = 0
        self.plan = []
        if self.planner is not None:
            self.planner.reset()
        if cold:
            self.pool.clear()

    @property
    def biscuit_pages_equivalent(self) -> float:
        """Biscuit-side 'pages read by the DB engine': host reads plus the
        NDP result stream expressed in pages (Fig. 10's I/O ratio basis)."""
        return self.host_pages_read + self.ndp_result_bytes / self.db.fs.page_size

    # ------------------------------------------------------------- page access
    def table_page_rows(self, table: str, page_no: int) -> List[tuple]:
        """Decoded rows of a page (value level, no timing)."""
        pages = self._decoded.get(table)
        if pages is None:
            storage = self.db.table(table)
            pages = [None] * storage.num_pages  # type: ignore[list-item]
            self._decoded[table] = pages
        rows = pages[page_no]
        if rows is None:
            storage = self.db.table(table)
            rows = self.db.read_page_rows(storage, page_no)
            pages[page_no] = rows
        return rows

    def _charge(self, duration_us: float) -> Generator:
        yield from self.system.cpu.occupy(duration_us)

    # ------------------------------------------------------------------ scan
    def t(self, name: str, pred: Optional[Expr] = None,
          cols: Optional[List[str]] = None) -> TableRef:
        """Build a lazy table reference (relation algebra input)."""
        return TableRef(name, pred, cols)

    def fetch(self, ref: Union[TableRef, Rel]) -> Generator:
        """Fiber: materialize a reference (scan, offloading when eligible)."""
        if isinstance(ref, Rel):
            return ref
        rel, _step = yield from self._scan(ref)
        return rel

    def _scan(self, ref: TableRef) -> Generator:
        """Fiber: scan a base table, offloading when the planner says so;
        returns the relation and the :class:`PlanStep` it recorded."""
        decision = None
        if self.mode is ExecutionMode.BISCUIT and ref.pred is not None:
            decision = yield from self.planner.peek(ref)
        if decision is not None and decision.offload:
            step = self._record(ref, "NDPScan", decision)
            rel = yield from self.ndp_context.ndp_scan(self, step)
        else:
            step = self._record(ref, "SeqScan", decision)
            rel = yield from self._host_scan(step)
        return rel, step

    def _record(self, ref: TableRef, access: str, decision=None) -> PlanStep:
        step = PlanStep(ref, access, decision)
        self.plan.append(step)
        return step

    #: Statement-executor contract: a site whose access path can return rows
    #: already ordered (top-k) binds that path here.  One device scans in
    #: page order, so ORDER BY always sorts after the projection.
    fetch_sorted = None

    def scan_states(self, ref: TableRef, plan: AggPlan) -> Generator:
        """Fiber: ``plan``'s states over one table scan — the pushdown gate.

        Offloadable, device-supported aggregates over a filtered table run
        as ScanAggregate SSDlets so only states cross the interface; every
        other case fetches the rows and folds them on the host with the
        same kernel, so the caller (and the fleet's coordinator) cannot
        tell where a partial was reduced.
        """
        decision = None
        if (ref.pred is not None and self.ndp_context is not None
                and self.config.ndp_pushdown_aggregate and plan.device_ok):
            decision = yield from self.planner.peek(ref)
        if decision is not None and decision.offload:
            step = self._record(ref, "NDPScan", decision)
            states = yield from self.ndp_context.ndp_aggregate(self, step, plan)
            return states
        rel, step = yield from self._scan(ref)
        fold = step.kernels["fold"] = plan.fold(rel.positions)
        yield from self._charge(len(rel) * HOST_AGG_ROW_US)
        return fold({}, rel.rows)

    def scan_aggregate(
        self,
        ref: TableRef,
        group_by: List[str],
        aggs: List[Tuple[str, str, Optional[Expr]]],
    ) -> Generator:
        """Fiber: grouped aggregate over one table scan, as a Rel."""
        plan = AggPlan(group_by, aggs)
        states = yield from self.scan_states(ref, plan)
        return plan.finalize(states)

    def scan_kernel(self, ref: TableRef):
        """``(output columns, kernel)``: ``ref``'s filter and projection
        fused into one pass over a page of the table's stored rows."""
        schema = self.db.table(ref.name).schema
        positions = {name: i for i, name in enumerate(schema.column_names())}
        out_cols = ref.cols or schema.column_names()
        return out_cols, kernels.select(
            positions, ref.pred, [Col(c) for c in out_cols])

    def _host_scan(self, step: PlanStep) -> Generator:
        """Fiber: full host-side scan with readahead, filter, project."""
        ref = step.ref
        storage = self.db.table(ref.name)
        out_cols, scan = self.scan_kernel(ref)
        step.kernels["select"] = scan
        page_size = storage.page_size
        rows_out: List[tuple] = []

        def decode(offset: int, _take: int, pages: int) -> Generator:
            self.host_pages_read += pages
            # CPU: decode + filter + project every row of the chunk.
            chunk_rows = 0
            first = offset // page_size
            for page_no in range(first, first + pages):
                page_rows = self.table_page_rows(ref.name, page_no)
                chunk_rows += len(page_rows)
                rows_out.extend(scan(page_rows))
            yield from self._charge(chunk_rows * HOST_ROW_US)

        yield from self.system.open_host(storage.path).stream(
            0, storage.inode.size, SCAN_CHUNK_PAGES * page_size,
            decode)
        return Rel(out_cols, rows_out)

    # ------------------------------------------------------------------ joins
    def join(
        self,
        left: Union[TableRef, Rel],
        right: Union[TableRef, Rel],
        left_key: str,
        right_key: str,
        cols: Optional[List[str]] = None,
    ) -> Generator:
        """Fiber: equi-join with the mode's join-order policy.

        When both sides are base tables the driver is the first of
        :meth:`_join_order` — the rule :meth:`multi_join` uses.  Conv: the
        table with fewer rows drives (MariaDB's policy); the other side is
        index-probed when indexed.  Biscuit: an NDP-offloaded side always
        drives (the paper's planner heuristic), collapsing the probe volume.
        """
        left_is_table = isinstance(left, TableRef)
        right_is_table = isinstance(right, TableRef)
        if left_is_table and right_is_table:
            order = yield from self._join_order([left, right])
            if order[0] is not left:
                left, right = right, left
                left_key, right_key = right_key, left_key
            driving = yield from self.fetch(left)
            rel = yield from self._join_rel_table(driving, right, left_key, right_key, cols)
            return rel
        if left_is_table:
            left, right = right, left
            left_key, right_key = right_key, left_key
            right_is_table = True
        if right_is_table:
            driving = yield from self.fetch(left)
            rel = yield from self._join_rel_table(driving, right, left_key, right_key, cols)
            return rel
        rel = yield from self._hash_join(left, right, left_key, right_key, cols)
        return rel

    def _join_rel_table(
        self,
        driving: Rel,
        inner_ref: TableRef,
        driving_key: str,
        inner_key: str,
        cols: Optional[List[str]],
    ) -> Generator:
        """Fiber: join a materialized relation against a base table."""
        inner = self.db.table(inner_ref.name)
        if inner.has_index(inner_key):
            est_probe_pages = len(driving) * inner.index_pages_per_key(inner_key)
            if est_probe_pages <= inner.num_pages * self.config.inl_scan_factor:
                rel = yield from self._index_join(
                    driving, inner_ref, driving_key, inner_key, cols
                )
                return rel
        inner_rel, step = yield from self._scan(inner_ref)
        step.access += "+HashJoin"
        rel = yield from self._hash_join(driving, inner_rel, driving_key, inner_key, cols)
        return rel

    def _index_join(
        self,
        driving: Rel,
        inner_ref: TableRef,
        driving_key: str,
        inner_key: str,
        cols: Optional[List[str]],
    ) -> Generator:
        """Fiber: index-nested-loop join; inner data pages fetched per key
        through the buffer pool (host preads on miss)."""
        inner = self.db.table(inner_ref.name)
        probe = kernels.probe(inner.schema.position(inner_key))
        driving_key_pos = driving.position(driving_key)
        inner_cols, scan = self.scan_kernel(inner_ref)
        self._record(inner_ref, "IndexProbe(%s)" % inner_key).kernels["select"] = scan
        out_columns, merge = kernels.merge(driving.columns, inner_cols, cols)
        handle = self.system.open_host(inner.path)
        page_size = inner.page_size
        out_rows: List[tuple] = []
        probes = 0
        probed_cpu_rows = 0
        for row in driving.rows:
            key = row[driving_key_pos]
            pages = inner.index_pages(inner_key, key)
            probes += 1
            for page_no in pages:
                pool_key = (inner_ref.name, page_no)
                cached = self.pool.get(pool_key)
                if cached is None:
                    # Buffer-pool miss: a real random read.  Probes hitting
                    # evicted pages pay again — the I/O amplification that
                    # early filtering (NDP-first join order) avoids.
                    length = min(page_size, inner.inode.size - page_no * page_size)
                    yield from handle.read_timing_only(page_no * page_size, length)
                    self.host_pages_read += 1
                    cached = self.table_page_rows(inner_ref.name, page_no)
                    self.pool.put(pool_key, cached)
                matched = probe(cached, key)
                probed_cpu_rows += len(matched)
                out_rows += merge((row,), scan(matched))
            if probes % 1024 == 0:
                yield from self._charge(
                    1024 * PROBE_OVERHEAD_US
                    + probed_cpu_rows * HOST_JOIN_ROW_US
                )
                probed_cpu_rows = 0
        yield from self._charge(
            (probes % 1024) * PROBE_OVERHEAD_US
            + probed_cpu_rows * HOST_JOIN_ROW_US
        )
        return Rel(out_columns, out_rows)

    def _hash_join(
        self,
        left: Rel,
        right: Rel,
        left_key: str,
        right_key: str,
        cols: Optional[List[str]],
    ) -> Generator:
        """Fiber: in-memory hash join (build on the smaller side)."""
        if len(right) < len(left):
            # Build on right, probe with left (output order: left ++ right).
            build, build_key, probe = right, right_key, left
            probing = ("l", left.position(left_key))
        else:
            build, build_key, probe = left, left_key, right
            probing = ("r", right.position(right_key))
        build_pos = build.position(build_key)
        table: Dict[Any, List[tuple]] = {}
        for row in build.rows:
            table.setdefault(row[build_pos], []).append(row)
        out_columns, merge = kernels.merge(
            left.columns, right.columns, cols, probing=probing)
        if probing[0] == "l":
            out_rows = merge(left.rows, table)
        else:
            out_rows = merge(table, right.rows)
        yield from self._charge(
            (len(build) + len(probe) + len(out_rows))
            * HOST_JOIN_ROW_US
        )
        return Rel(out_columns, out_rows)

    # -------------------------------------------------------------- multi-join
    def multi_join(
        self,
        refs: List[Union[TableRef, Rel]],
        conditions: List[Tuple[str, str]],
        cols: Optional[List[str]] = None,
    ) -> Generator:
        """Fiber: left-deep join of several relations.

        ``conditions`` are equi-join column pairs.  Join order is the crux of
        the Conv/Biscuit difference (Section V-C):

        * Conv — MariaDB's policy: smallest base table first, then the
          smallest *connected* relation, probing inner tables by index.
        * Biscuit — the NDP-offloaded (filtered) table first, so later joins
          only touch the rows that survived device-side filtering.

        Conditions not usable as the current join key are applied as filters
        as soon as both columns are present.
        """
        if len(refs) < 2:
            raise ValueError("multi_join needs at least two relations")
        order = yield from self._join_order(refs)
        pending = list(conditions)
        current = yield from self.fetch(order[0])
        remaining = list(order[1:])
        while remaining:
            pick = None
            for candidate in remaining:
                key = self._find_key(current, candidate, pending)
                if key is not None:
                    pick = (candidate, key)
                    break
            if pick is None:
                # No connecting condition yet: cartesian with the smallest
                # remaining relation (TPC-H never needs this, but stay total).
                candidate = remaining[0]
                fetched = candidate
                if isinstance(candidate, TableRef):
                    fetched, step = yield from self._scan(candidate)
                    step.access += "+CrossJoin"
                current = yield from self._cartesian(current, fetched)
                remaining.remove(candidate)
            else:
                candidate, (cur_col, other_col, condition) = pick
                pending.remove(condition)
                if isinstance(candidate, TableRef):
                    current = yield from self._join_rel_table(
                        current, candidate, cur_col, other_col, None
                    )
                else:
                    current = yield from self._hash_join(
                        current, candidate, cur_col, other_col, None
                    )
                remaining.remove(candidate)
            # Apply any condition whose two columns are now both present.
            current, pending = yield from self._apply_ready(current, pending)
        if pending:
            raise ValueError("unsatisfiable join conditions: %r" % pending)
        if cols is not None:
            take = kernels.select(current.positions, None, [Col(c) for c in cols])
            yield from self._charge(len(current) * 0.05)
            current = Rel(cols, take(current.rows))
        return current

    def _join_order(self, refs: List[Union[TableRef, Rel]]) -> Generator:
        """Fiber: order relations per the mode's policy."""
        sized: List[Tuple[int, int, Union[TableRef, Rel]]] = []
        for position, ref in enumerate(refs):
            if isinstance(ref, Rel):
                rows = len(ref)
                offload = False
            else:
                rows = self.db.table(ref.name).num_rows
                offload = False
                if (self.mode is ExecutionMode.BISCUIT
                        and self.config.ndp_join_order and ref.pred is not None):
                    decision = yield from self.planner.peek(ref)
                    offload = decision.offload
            sized.append((0 if offload else 1, rows, position))
        sized.sort()
        return [refs[position] for _, _, position in sized]

    def _find_key(self, current: Rel, candidate, pending):
        names = (
            set(candidate.cols or self.db.table(candidate.name).schema.column_names())
            if isinstance(candidate, TableRef) else set(candidate.columns)
        )
        have = set(current.columns)
        for condition in pending:
            a, b = condition
            if a in have and b in names:
                return a, b, condition
            if b in have and a in names:
                return b, a, condition
        return None

    def _apply_ready(self, current: Rel, pending: List[Tuple[str, str]]) -> Generator:
        still: List[Tuple[str, str]] = []
        for a, b in pending:
            if a in current.positions and b in current.positions:
                pa, pb = current.position(a), current.position(b)
                yield from self._charge(len(current) * HOST_ROW_US * 0.25)
                current = Rel(
                    current.columns,
                    [row for row in current.rows if row[pa] == row[pb]],
                )
            else:
                still.append((a, b))
        return current, still

    def _cartesian(self, left: Rel, right: Rel) -> Generator:
        out_columns, merge = kernels.merge(left.columns, right.columns)
        yield from self._charge(
            len(left) * len(right) * HOST_JOIN_ROW_US
        )
        return Rel(out_columns, merge(left.rows, right.rows))

    # -------------------------------------------------------------- operators
    def rename(self, rel: Rel, mapping: Dict[str, str]) -> Rel:
        """Relabel columns (free): used for self-joins (n1/n2 in Q7)."""
        return Rel([mapping.get(c, c) for c in rel.columns], rel.rows)

    def charge_rows(self, count: int) -> Generator:
        """Fiber: charge host CPU for query-program-side row processing."""
        yield from self._charge(count * HOST_ROW_US)

    def semi_join(self, rel: Rel, key: str, keys_rel: Rel, keys_col: str,
                  anti: bool = False) -> Generator:
        """Fiber: EXISTS / NOT EXISTS against a key set."""
        keys_position = keys_rel.position(keys_col)
        key_set = {row[keys_position] for row in keys_rel.rows}
        position = rel.position(key)
        yield from self._charge(
            (len(rel) + len(keys_rel)) * HOST_JOIN_ROW_US
        )
        if anti:
            rows = [row for row in rel.rows if row[position] not in key_set]
        else:
            rows = [row for row in rel.rows if row[position] in key_set]
        return Rel(rel.columns, rows)

    def distinct(self, rel: Rel, cols: Optional[List[str]] = None) -> Generator:
        """Fiber: distinct rows (optionally on a column subset)."""
        yield from self._charge(len(rel) * HOST_AGG_ROW_US)
        if cols is None:
            columns, rows = rel.columns, rel.rows
        else:
            take = kernels.select(rel.positions, None, [Col(c) for c in cols])
            columns, rows = cols, take(rel.rows)
        # dict.fromkeys keeps the first occurrence of each row, in order.
        return Rel(columns, list(dict.fromkeys(rows)))
