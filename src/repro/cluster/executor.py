"""Replicated scatter-gather SQL over the sharded fleet.

:class:`ClusterExecutor` is the coordinator: a *site* the one statement
executor (:func:`repro.db.sql.execute_statement`) runs on.  Its access paths
prune the target shard set with
:func:`repro.db.planner.partition_constraints`, fan the scan out to every
owning shard (the whole single-device NDP datapath — planner, matcher
prefilter, ScanFilter/ScanAggregate SSDlets — runs device-side on each
node), and merge the device-reduced partials client-side:

* **sorted scans** — each shard sorts (and top-k-limits) locally, the
  coordinator stable-sorts the runs in shard order
  (:func:`repro.db.executor.sort_rows`: their deterministic k-way merge);
* **aggregates** — shards ship :class:`repro.db.executor.AggPlan` states,
  merged with the plan (a host-computed partial and a device-reduced one
  combine bit-for-bit);
* **point lookups** — pruned to the one owning shard; the first successful
  replica response wins.

Per-shard resilience reuses :mod:`repro.resilience`: with a
:class:`HedgePolicy` every shard call goes through
:meth:`ScaleOutCluster.hedged_call` (p99-deadline hedge onto the replica,
immediate failover on a primary device error); without one, a retry loop
with exponential backoff walks the shard's *alive* copies from the catalog.
Either way a node crash mid-scatter costs a failover, not the query.

Coordinator-side work is charged to the client host CPU and traced as
``("cluster", "merge")`` spans; the fan-out barrier is traced as
``("cluster", "scatter-wait")`` — both feed the causal attribution
pipeline's ``cluster_merge`` / ``cluster_scatter_wait`` components, and
neither span is emitted when its duration is zero.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.catalog import shard_table_name
from repro.cluster.fleet import ShardedFleet, ShardedKVStore
from repro.core.errors import DeviceCrashedError, DeviceError
from repro.db.executor import (
    AggPlan,
    EngineConfig,
    Rel,
    RelOps,
    TableRef,
    sort_rows,
)
from repro.db.expr import Cmp, Col, Const, Expr
from repro.db.planner import partition_constraints
from repro.db.sql import SqlError, compile_sql, execute_statement
from repro.net.cluster import StorageNode
from repro.resilience import HedgePolicy, RetryPolicy
from repro.sim.engine import all_of, backoff

__all__ = ["ClusterExecutor"]


def _payload_bytes(obj: Any) -> int:
    """Wire size of a shipped partial (its pickle — what the link carries)."""
    return len(pickle.dumps(obj, protocol=4))


def _rows_bytes(rel: Rel) -> int:
    return _payload_bytes(rel.rows)


def _kv_bytes(results: Dict[bytes, Optional[bytes]]) -> int:
    return sum(16 + len(key) + (len(value) if value is not None else 0)
               for key, value in results.items())


class ClusterExecutor(RelOps):
    """The scatter-gather coordinator for one :class:`ShardedFleet`.

    A *site* for :func:`repro.db.sql.execute_statement`: it supplies the
    fleet's access paths (:meth:`scatter_fetch`, :meth:`scatter_aggregate`)
    and charges everything after them to the client host CPU.
    """

    #: RPC envelope sizes; bulk results are shipped explicitly by the shard
    #: work (sized from the actual pickled partial), so the serve() response
    #: envelope stays small.
    REQUEST_BYTES = 256
    RESPONSE_BYTES = 128
    #: Coordinator CPU cost per shard response unpacked.
    GATHER_RPC_US = 5.0
    #: Coordinator CPU cost per row gathered (concatenated, merge-sorted).
    MERGE_ROW_US = 0.1

    def __init__(
        self,
        fleet: ShardedFleet,
        hedge: Optional[HedgePolicy] = None,
        retry: Optional[RetryPolicy] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.fleet = fleet
        self.hedge = hedge
        self.retry = retry or RetryPolicy(retry_limit=1, backoff_us=300.0)
        self.config = config or fleet.engine_config or EngineConfig()
        self.query_seq = 0
        self.scatter_calls = 0
        self.shard_rpcs = 0
        self.fan_out_total = 0
        self.max_fan_out = 0
        self.retries = 0
        self.failovers = 0
        self.merged_rows = 0
        self.point_lookups = 0
        #: Duration of every completed shard RPC (request to gathered
        #: response) — the single-shard latency distribution the tail-
        #: amplification report compares the full scatter against.
        self.leg_latencies_ns: List[int] = []

    # ----------------------------------------------------------- entry point
    def begin_query(self, cold: bool = True) -> None:
        """Reset per-query statistics on every node engine."""
        self.fleet.begin_query(cold=cold)
        self.query_seq += 1

    def run_sql(self, text: str, cold: bool = True) -> Tuple[Rel, float]:
        """Run one statement across the fleet; returns (Rel, elapsed s)."""
        self.begin_query(cold=cold)
        sim = self.fleet.sim
        start_s = sim.now_s
        with sim.scope("cluster/q%d" % self.query_seq):
            rel = self.fleet.run_fiber(self.sql_fiber(text),
                                       name="cluster-sql")
        return rel, sim.now_s - start_s

    def sql_fiber(self, text: str) -> Generator:
        """Fiber: compile one statement and execute it with the fleet as
        the site (scatter, gather, post-process at the coordinator)."""
        fleet = self.fleet
        sim = fleet.sim
        q_start = sim.now
        compiled = compile_sql(
            fleet.engine(fleet.catalog.primary_for(0)), text)
        for ref in compiled.refs:
            if not fleet.catalog.is_sharded(ref.name):
                raise SqlError("table %r is not sharded" % ref.name)
        rel = yield from execute_statement(self, compiled)
        trace = sim.trace
        if trace is not None and sim.now > q_start:
            trace.complete("cluster", "query", "host/cluster", q_start,
                           table=compiled.refs[0].name)
        return rel

    def multi_join(self, refs: List[TableRef], conditions) -> Generator:
        """The fleet has no distributed join (no Exchange operator yet): the
        one place a multi-table statement is turned away."""
        raise SqlError(
            "cluster scatter-gather is single-table; got %d tables"
            % len(refs))

    # -------------------------------------------------------------- scatter
    def target_shards(self, ref: TableRef) -> List[int]:
        """The shards the scan must visit (predicate-pruned, superset-safe)."""
        spec = self.fleet.catalog.spec(ref.name)
        constraint = partition_constraints(ref.pred, spec.key)
        return spec.target_shards(constraint)

    def scatter_fetch(
        self,
        ref: TableRef,
        order_by: Optional[List[Tuple[str, bool]]] = None,
        limit: Optional[int] = None,
    ) -> Generator:
        """Fiber: fan a scan out to every owning shard and gather rows.

        Partials are concatenated in shard order; with ``order_by`` each
        shard returns its rows pre-sorted (top-k when ``limit`` is set), so
        the stable sort of the concatenation is the runs' k-way merge with
        ties to the lowest shard index — reproducible whatever the arrival
        timing.
        """
        partials = yield from self._scatter(
            ref.name, self.target_shards(ref),
            self._scan_work(ref, order_by, limit), _rows_bytes)
        columns = (partials[0].columns if partials
                   else list(ref.cols or ()))
        rows = [row for rel in partials for row in rel.rows]
        self.merged_rows += len(rows)
        yield from self._charge(
            len(partials) * self.GATHER_RPC_US
            + len(rows) * self.MERGE_ROW_US)
        if order_by and partials:
            rows = sort_rows(
                rows, [(partials[0].position(c), d) for c, d in order_by],
                limit)
        return Rel(columns, rows)

    def scatter_aggregate(
        self,
        ref: TableRef,
        group_by: List[str],
        aggs: List[Tuple[str, str, Optional[Expr]]],
    ) -> Generator:
        """Fiber: distributed aggregation.

        Device-supported aggregate sets ship per-shard *states* (tiny) and
        the coordinator folds them; anything else (count_distinct) falls
        back to shipping matching rows and aggregating client-side.  Each
        shard runs :meth:`Engine.scan_states` — reduced on-device when the
        planner offloads, folded from a host scan into the same states
        otherwise — so a crashed-primary failover never changes results.
        """
        plan = AggPlan(group_by, aggs)
        if not plan.device_ok:
            rel = yield from self.scatter_fetch(ref)
            rel = yield from self.aggregate(rel, group_by, aggs)
            return rel

        def work(shard: int, node_index: int) -> Generator:
            states = yield from self.fleet.engine(node_index).scan_states(
                TableRef(shard_table_name(ref.name, shard), ref.pred,
                         ref.cols), plan)
            return states

        partials = yield from self._scatter(
            ref.name, self.target_shards(ref), work, _payload_bytes)
        totals: Dict[tuple, list] = {}
        for partial in partials:
            plan.merge(totals, partial)
        merged = sum(len(partial) for partial in partials)
        self.merged_rows += merged
        yield from self._charge(
            len(partials) * self.GATHER_RPC_US
            + merged * self.config.host_agg_row_us)
        return plan.finalize(totals)

    # The statement executor's names for the fleet's access paths; shards
    # sort and top-k locally, so ORDER BY on plain columns is pushed down.
    fetch = fetch_sorted = scatter_fetch
    scan_aggregate = scatter_aggregate

    def point_lookup(self, table: str, value: Any,
                     cols: Optional[List[str]] = None) -> Generator:
        """Fiber: partition-key equality lookup, pruned to the one owning
        shard; against replicas the first successful response wins (the
        hedge races primary and replica, the failover path walks alive
        copies in order)."""
        fleet = self.fleet
        spec = fleet.catalog.spec(table)
        shard = spec.shard_of(value)
        pred = Cmp("==", Col(spec.key), Const(value))
        self.point_lookups += 1
        rel = yield from self._shard_call(
            shard, self._scan_work(TableRef(table, pred, cols)), _rows_bytes)
        yield from self._charge(self.GATHER_RPC_US)
        return rel

    def kv_lookup(self, store: ShardedKVStore,
                  keys: Sequence[bytes]) -> Generator:
        """Fiber: batched KV lookups, grouped by shard and scattered.

        Each shard runs the Lookup SSDlet batch device-side on one of its
        copy holders; the gathered per-shard dicts are disjoint by
        construction so the merge is a plain union.
        """
        groups = store.group_keys(keys)

        def work(shard: int, node_index: int) -> Generator:
            """Batched Lookup SSDlet over one KV shard copy."""
            results = yield from store.store_on(
                shard, node_index).get_biscuit(groups[shard])
            return results

        partials = yield from self._scatter(
            store.name, list(groups), work, _kv_bytes)
        out: Dict[bytes, Optional[bytes]] = {}
        for partial in partials:
            out.update(partial)
        yield from self._charge(
            len(partials) * self.GATHER_RPC_US
            + len(out) * self.MERGE_ROW_US)
        return out

    # ----------------------------------------------------------- shard leg
    def _scan_work(self, ref: TableRef,
                   order_by: Optional[List[Tuple[str, bool]]] = None,
                   limit: Optional[int] = None):
        """``work(shard, node_index)``: scan one copy of ``ref``'s shard
        through the node's NDP datapath, sorted (top-k) there if asked."""
        def work(shard: int, node_index: int) -> Generator:
            engine = self.fleet.engine(node_index)
            rel = yield from engine.fetch(TableRef(
                shard_table_name(ref.name, shard), ref.pred, ref.cols))
            if order_by:
                rel = yield from engine.sort(rel, list(order_by), limit=limit)
            return rel
        return work

    def _leg(self, node: StorageNode, shard: int, work, size) -> Generator:
        """Fiber (node-side): the one shard leg.  Refuse a node known to be
        down, run ``work(shard, node_index)`` there, and ship its result
        over the node's link at ``size(result)`` bytes."""
        index = self.fleet.node_index(node)
        self.fleet.ensure_alive(index)
        result = yield from work(shard, index)
        yield from node.link.send(size(result))
        return result

    # ------------------------------------------------------- fan-out + RPC
    def _scatter(self, label: str, shards: List[int], work,
                 size: Callable[[Any], int]) -> Generator:
        """Fiber: launch one resilient leg per shard, barrier on all.

        ``all_of`` fails fast: a leg whose every copy is gone aborts the
        query immediately rather than waiting out the stragglers.  The
        barrier wait is traced as ``("cluster", "scatter-wait")`` (only
        when non-zero).
        """
        sim = self.fleet.sim
        self.scatter_calls += 1
        self.fan_out_total += len(shards)
        self.max_fan_out = max(self.max_fan_out, len(shards))
        legs = [
            sim.process(
                self._shard_call(shard, work, size),
                name="scatter-%s-s%d" % (label, shard),
            )
            for shard in shards
        ]
        start = sim.now
        values = yield all_of(sim, legs)
        trace = sim.trace
        if trace is not None and sim.now > start:
            trace.complete("cluster", "scatter-wait", "host/cluster", start,
                           fan_out=len(shards))
        return values

    def _shard_call(self, shard: int, work, size) -> Generator:
        """Fiber: one shard RPC with hedging or retry+replica failover.

        With a hedge policy the call races primary against replica past the
        p99 deadline (crashed primary → immediate failover).  Without one,
        each *alive* copy from the catalog is tried in primary-first order,
        retrying transient device errors with exponential backoff before
        failing over; a crashed node is not retried.  Raises the last error
        (or :class:`ShardUnavailableError`) when every copy is exhausted.
        """
        fleet = self.fleet
        sim = fleet.sim
        self.shard_rpcs += 1
        rpc_start = sim.now

        def make_work(node: StorageNode) -> Generator:
            return self._leg(node, shard, work, size)

        if self.hedge is not None:
            before = self.hedge.failovers
            value = yield from fleet.cluster.hedged_call(
                shard, fleet.replica_map, make_work, self.hedge,
                request_bytes=self.REQUEST_BYTES,
                response_bytes=self.RESPONSE_BYTES)
            self.failovers += self.hedge.failovers - before
            self.leg_latencies_ns.append(sim.now - rpc_start)
            return value
        fleet.catalog.nodes_for(shard)  # raises ShardUnavailableError early
        last_error: Optional[DeviceError] = None
        for node_index in fleet.replica_map.nodes_for(shard):
            if fleet.catalog.is_down(node_index):
                self.failovers += 1  # known-dead copy skipped by routing
                continue
            node = fleet.node(node_index)
            tries = 0
            while True:
                try:
                    value = yield from node.serve(
                        make_work(node), self.REQUEST_BYTES,
                        self.RESPONSE_BYTES)
                    self.leg_latencies_ns.append(sim.now - rpc_start)
                    return value
                except DeviceError as exc:
                    last_error = exc
                    tries += 1
                    if (tries > self.retry.retry_limit
                            or isinstance(exc, DeviceCrashedError)):
                        self.failovers += 1
                        break  # next copy
                    self.retries += 1
                    yield from backoff(
                        sim, self.retry.backoff_ns(tries), "resil", "backoff",
                        "host/cluster", shard=shard, attempt=tries)
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------ coordinator ops
    def _charge(self, duration_us: float) -> Generator:
        """Fiber: charge coordinator CPU, traced as a ``cluster/merge`` span
        (covering run *and* core-queueing time; zero-cost spans elided)."""
        if duration_us <= 0:
            return
        sim = self.fleet.sim
        start = sim.now
        yield from self.fleet.cluster.client_cpu.occupy(
            duration_us, memory_bound=False)
        trace = sim.trace
        if trace is not None and sim.now > start:
            trace.complete("cluster", "merge", "host/cluster", start)
