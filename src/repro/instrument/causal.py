"""Per-query causal tracing: DAG assembly, critical paths, tail attribution.

The EventBus tags every emission with the active :class:`TraceContext`
(``q=<qid>``, ``tn=<tenant>``), so a single event stream already contains
request identity — this module *reassembles* it.  Three consumers:

* :func:`assemble_dag` — the per-query causal DAG: one node per tagged span,
  with containment edges (a ``fw`` span inside the ``ctrl/read`` envelope)
  and spawn edges (a ``+hedge0`` child scope hangs off its parent scope).
* :func:`critical_path` — the backward last-finisher walk: from the query's
  end, repeatedly step to the span that finished latest and jump to its
  start; the returned chain is the sequence of work (and waits) that the
  query's latency is actually made of.
* :func:`attribute` / :class:`AttributionReport` — the tail-latency
  decomposition.  Each query's end-to-end latency is partitioned — exactly,
  in integer nanoseconds — into additive components (host queueing,
  admission wait, channel queueing, NAND busy, ECC retry, fault recovery,
  hedge wait, transfer, firmware, driver, other).

Conservation invariant (asserted here and in tests): for every query,
``sum(components) == end_to_end`` with no rounding, ever.  The partition is
a priority sweep over the query's time envelope: elementary segments between
span boundaries are charged to the highest-priority component active there,
and uncovered time falls to ``other`` — so the components tile the envelope
by construction.  Priorities encode "what would I remove first": anomalous
time (ECC retries, fault recovery) outranks queueing, queueing outranks the
busy work underneath it, and passive waits (hedge window, port blocking)
rank last so real work concurrent with them wins the charge.

Everything here is pure post-processing of an event list: byte-deterministic
given the trace (which the simulator makes bit-reproducible), and free when
tracing is off because it never runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.instrument.events import TraceEvent

__all__ = [
    "COMPONENTS",
    "QueryTrace",
    "SpanNode",
    "group_queries",
    "assemble_dag",
    "critical_path",
    "component_of",
    "attribute_query",
    "attribute",
    "AttributionReport",
]

#: Attribution components in priority order (strongest claim first).  The
#: sweep charges each elementary time segment to the first component with an
#: active span there; ``other`` is the residual and must stay last.
COMPONENTS: Tuple[str, ...] = (
    "ecc_retry",        # nand/read-failed, ctrl/retry-backoff
    "fault_recovery",   # resil/backoff, serve/retry-backoff, resil failover legs
    "admission_wait",   # serve/admit-wait (job queued behind the scheduler)
    "channel_queue",    # nand/die-wait, nand/bus-wait (op queued inside the SSD)
    "nand_busy",        # nand/read, nand/program, nand/erase
    "transfer",         # xfer spans (minus fabric hops: double-charged otherwise)
    "firmware",         # fw spans (controller core occupancy)
    "driver",           # driver spans (host-side submit/complete work)
    "cluster_merge",    # cluster/merge (coordinator folding shard partials)
    "host_queue",       # nvme/slot-wait (command queued behind the doorbell)
    "hedge_wait",       # resil/hedge-wait (deadline arm of a hedged read)
    "port_wait",        # port spans (SSDlet consumer blocked on a port)
    "cluster_scatter_wait",  # cluster/scatter-wait (fan-out barrier; loses
                        # to any real work running concurrently on a shard)
    "other",            # residual: envelope time no component claims
)

#: (cat, name) -> component for exact matches; categories with a uniform
#: mapping are handled in component_of below.
_SPAN_COMPONENT: Dict[Tuple[str, str], str] = {
    ("nand", "read-failed"): "ecc_retry",
    ("ctrl", "retry-backoff"): "ecc_retry",
    ("resil", "backoff"): "fault_recovery",
    ("serve", "retry-backoff"): "fault_recovery",
    ("serve", "admit-wait"): "admission_wait",
    ("nand", "die-wait"): "channel_queue",
    ("nand", "bus-wait"): "channel_queue",
    ("nand", "read"): "nand_busy",
    ("nand", "program"): "nand_busy",
    ("nand", "erase"): "nand_busy",
    ("nvme", "slot-wait"): "host_queue",
    ("resil", "hedge-wait"): "hedge_wait",
    ("cluster", "merge"): "cluster_merge",
    ("cluster", "scatter-wait"): "cluster_scatter_wait",
}

#: Envelope spans: containers whose duration is the *sum* of finer-grained
#: work inside them.  They are DAG nodes but never attribution sources and
#: never critical-path steps (their children are).
_ENVELOPE_SPANS = frozenset([
    ("nvme", "read"), ("nvme", "write"),
    ("ctrl", "read"), ("ctrl", "write"),
    ("core", "fiber"),
    ("resil", "scan"),
    ("cluster", "query"),
])


def component_of(event: TraceEvent) -> Optional[str]:
    """The attribution component a span argues for, or None (envelope)."""
    key = (event.cat, event.name)
    if key in _ENVELOPE_SPANS:
        return None
    exact = _SPAN_COMPONENT.get(key)
    if exact is not None:
        return exact
    if event.cat == "xfer":
        # Fabric hops run cut-through, concurrent with the device link hop:
        # they re-time bytes already charged to a device-local xfer span.
        return None if event.name == "fabric" else "transfer"
    if event.cat == "fw":
        return "firmware"
    if event.cat == "driver":
        return "driver"
    if event.cat == "port":
        return "port_wait"
    return None


def _qid_root(event: TraceEvent) -> Optional[str]:
    args = event.args
    if not args:
        return None
    qid = args.get("q")
    if qid is None:
        return None
    return qid.split("+", 1)[0]


class QueryTrace(NamedTuple):
    """One query's slice of the event stream (emission order preserved)."""

    qid: str                    #: root query id
    tenant: str                 #: owning tenant ("" when untenanted)
    events: List[TraceEvent]    #: every event tagged with this root
    start_ns: int               #: earliest timestamp
    end_ns: int                 #: latest span end

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns


def group_queries(events: Sequence[TraceEvent]) -> List[QueryTrace]:
    """Split a tagged stream into per-query traces, first-appearance order."""
    order: List[str] = []
    buckets: Dict[str, List[TraceEvent]] = {}
    for event in events:
        root = _qid_root(event)
        if root is None:
            continue
        if root not in buckets:
            order.append(root)
            buckets[root] = []
        buckets[root].append(event)
    traces = []
    for root in order:
        bucket = buckets[root]
        tenant = ""
        for event in bucket:
            tenant = (event.args or {}).get("tn", "")
            if tenant:
                break
        traces.append(QueryTrace(
            root, tenant, bucket,
            min(event.ts_ns for event in bucket),
            max(event.end_ns for event in bucket),
        ))
    return traces


# ------------------------------------------------------------------ DAG
class SpanNode(NamedTuple):
    """One node of a query's causal DAG."""

    index: int                    #: emission index within the query trace
    event: TraceEvent
    parent: Optional[int]         #: index of the enclosing/spawning node
    kind: str                     #: "contain" | "spawn" | "root"


def assemble_dag(trace: QueryTrace) -> List[SpanNode]:
    """The query's causal DAG as a parent-linked forest.

    Two edge kinds: **containment** (smallest enclosing span on the same
    track — a ``nand/die-wait`` inside its channel's ``nand/read``) and
    **spawn** (a child scope's first span hangs off the last span of its
    parent scope that started at or before it — a ``+hedge0`` leg off the
    hedged scan).  Spans with neither are roots.  Instant events attach by
    containment only.
    """
    spans = [(i, e) for i, e in enumerate(trace.events) if e.dur_ns is not None]
    nodes: List[SpanNode] = []
    # Last span seen per exact qid path, for spawn edges.
    last_for_qid: Dict[str, int] = {}
    # Open spans per track for containment: (end_ns, index) stacks.
    for i, event in enumerate(trace.events):
        qid = (event.args or {}).get("q", trace.qid)
        parent: Optional[int] = None
        kind = "root"
        # Containment: latest-emitted span on the same track that strictly
        # covers this event's interval.
        best: Optional[int] = None
        for j, other in spans:
            if j >= i:
                break
            if other.track != event.track:
                continue
            if other.ts_ns <= event.ts_ns and event.end_ns <= other.end_ns:
                best = j
        if best is not None:
            parent, kind = best, "contain"
        elif "+" in qid:
            parent_qid = qid.rsplit("+", 1)[0]
            spawn = last_for_qid.get(parent_qid)
            if spawn is not None:
                parent, kind = spawn, "spawn"
        nodes.append(SpanNode(i, event, parent, kind if parent is not None else "root"))
        if event.dur_ns is not None:
            last_for_qid[qid] = i
    return nodes


# -------------------------------------------------------------- critical path
def critical_path(trace: QueryTrace) -> List[TraceEvent]:
    """Backward last-finisher walk from the query's end to its start.

    At each cursor position, the step is the attributable span active there
    that finished latest (ties: later start, then later emission); the
    cursor jumps to its start.  When nothing is active, the cursor jumps to
    the latest span end at or before it (a scheduling gap).  Envelope spans
    are skipped — their interiors, not their outlines, explain the latency.
    Returned in forward (start-to-end) order.
    """
    spans = [e for e in trace.events
             if e.dur_ns is not None and e.dur_ns > 0
             and component_of(e) is not None]
    path: List[TraceEvent] = []
    cursor = trace.end_ns
    while cursor > trace.start_ns and spans:
        active = [(i, e) for i, e in enumerate(spans)
                  if e.ts_ns < cursor and e.end_ns >= cursor]
        if active:
            _, step = max(active, key=lambda pair: (
                pair[1].end_ns, pair[1].ts_ns, pair[0]))
            path.append(step)
            cursor = step.ts_ns
            continue
        ends = [e.end_ns for e in spans if e.end_ns <= cursor]
        if not ends:
            break
        cursor = max(ends)
    path.reverse()
    return path


# ---------------------------------------------------------------- attribution
def attribute_query(trace: QueryTrace) -> Dict[str, int]:
    """Partition one query's latency into components; exact by construction.

    Returns ``{component: ns}`` over :data:`COMPONENTS` plus
    ``end_to_end`` — and ``sum(components) == end_to_end`` always, because
    the sweep charges every elementary segment of the envelope to exactly
    one component.
    """
    start, end = trace.start_ns, trace.end_ns
    intervals: List[Tuple[int, int, int]] = []  # (priority, ts, end)
    priority_of = {name: rank for rank, name in enumerate(COMPONENTS)}
    for event in trace.events:
        if event.dur_ns is None or event.dur_ns <= 0:
            continue
        component = component_of(event)
        if component is None:
            continue
        intervals.append((priority_of[component],
                          max(event.ts_ns, start), min(event.end_ns, end)))
    totals = {name: 0 for name in COMPONENTS}
    boundaries = sorted({start, end}
                        | {ts for _, ts, _ in intervals}
                        | {e for _, _, e in intervals})
    for left, right in zip(boundaries, boundaries[1:]):
        if right <= start or left >= end:
            continue
        best: Optional[int] = None
        for priority, ts, iv_end in intervals:
            if ts <= left and iv_end >= right:
                if best is None or priority < best:
                    best = priority
        name = COMPONENTS[best] if best is not None else "other"
        totals[name] += right - left
    totals["end_to_end"] = end - start
    assert sum(totals[name] for name in COMPONENTS) == totals["end_to_end"], \
        "attribution conservation violated for %s" % trace.qid
    return totals


class AttributionReport(NamedTuple):
    """The full decomposition for a tagged event stream."""

    queries: List[Dict[str, Any]]        #: per-query rows (qid, tenant, ns columns)
    tenants: List[Dict[str, Any]]        #: per-tenant aggregate rows
    percentiles: Dict[str, Dict[str, int]]  #: "p50"/"p99"/... -> component ns
    mean: Dict[str, int]                 #: mean component ns across queries

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, newline-terminated): snapshot-diffable."""
        payload = {
            "queries": self.queries,
            "tenants": self.tenants,
            "percentiles": self.percentiles,
            "mean": self.mean,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Fixed-width text table (deterministic; for the CLI)."""
        lines = []
        header = ["query", "tenant", "e2e_us"] + list(COMPONENTS)
        rows = [header]
        for row in self.queries:
            rows.append([row["qid"], row["tenant"] or "-",
                         "%.1f" % (row["end_to_end"] / 1000.0)]
                        + ["%.1f" % (row[name] / 1000.0) for name in COMPONENTS])
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        lines.append("")
        lines.append("percentile decomposition (us):")
        for label in sorted(self.percentiles):
            comp = self.percentiles[label]
            parts = ["%s=%.1f" % (name, comp[name] / 1000.0)
                     for name in COMPONENTS if comp[name]]
            lines.append("  %s  e2e=%.1f  %s"
                         % (label, comp["end_to_end"] / 1000.0, " ".join(parts)))
        return "\n".join(lines) + "\n"


def _percentile_query(rows: List[Dict[str, Any]], quantile: float) -> Dict[str, Any]:
    """The row at the exact order statistic (same rank rule as the benches)."""
    ordered = sorted(rows, key=lambda row: (row["end_to_end"], row["qid"]))
    rank = max(0, min(len(ordered) - 1,
                      int(quantile * len(ordered) + 0.999999) - 1))
    return ordered[rank]


def attribute(events: Sequence[TraceEvent],
              quantiles: Sequence[float] = (0.50, 0.95, 0.99)) -> AttributionReport:
    """Decompose every tagged query in ``events``; see module docstring."""
    traces = group_queries(events)
    queries: List[Dict[str, Any]] = []
    for trace in traces:
        row: Dict[str, Any] = {"qid": trace.qid, "tenant": trace.tenant}
        row.update(attribute_query(trace))
        queries.append(row)
    tenants: List[Dict[str, Any]] = []
    tenant_order: List[str] = []
    by_tenant: Dict[str, List[Dict[str, Any]]] = {}
    for row in queries:
        tenant = row["tenant"]
        if tenant not in by_tenant:
            tenant_order.append(tenant)
            by_tenant[tenant] = []
        by_tenant[tenant].append(row)
    for tenant in sorted(tenant_order):
        rows = by_tenant[tenant]
        aggregate: Dict[str, Any] = {"tenant": tenant, "queries": len(rows)}
        for name in COMPONENTS + ("end_to_end",):
            aggregate[name] = sum(row[name] for row in rows)
        tenants.append(aggregate)
    percentiles: Dict[str, Dict[str, int]] = {}
    if queries:
        for quantile in quantiles:
            row = _percentile_query(queries, quantile)
            label = ("p%g" % (quantile * 100)).replace(".", "_")
            percentiles[label] = {name: row[name]
                                  for name in COMPONENTS + ("end_to_end",)}
    mean: Dict[str, int] = {}
    if queries:
        for name in COMPONENTS + ("end_to_end",):
            mean[name] = sum(row[name] for row in queries) // len(queries)
    return AttributionReport(queries, tenants, percentiles, mean)
