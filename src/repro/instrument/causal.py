"""Per-query causal tracing: critical paths and tail attribution.

The EventBus tags every emission with the active :class:`TraceContext`
(``q=<qid>``, ``tn=<tenant>``), so a single event stream already contains
request identity — this module *reassembles* it.  Two consumers:

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

import functools
import json
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.instrument.events import TraceEvent, qid_root
from repro.instrument.metrics import order_statistic

__all__ = [
    "COMPONENTS",
    "QueryTrace",
    "group_queries",
    "critical_path",
    "component_of",
    "attribute_query",
    "attribute",
    "attribute_traces",
    "AttributionReport",
]

#: Attribution components in priority order (strongest claim first).  The
#: sweep charges each elementary time segment to the first component with an
#: active span there; ``other`` is the residual and must stay last.
COMPONENTS: Tuple[str, ...] = (
    "ecc_retry",        # nand/read-failed, ctrl/retry-backoff
    "fault_recovery",   # resil/backoff, resil failover legs
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
#: work inside them.  They are never attribution sources and never
#: critical-path steps (their children are).
_ENVELOPE_SPANS = frozenset([
    ("nvme", "read"), ("nvme", "write"),
    ("ctrl", "read"), ("ctrl", "write"),
    ("core", "fiber"),
    ("resil", "scan"),
    ("cluster", "query"),
])


def _component(cat: str, name: str) -> Optional[str]:
    key = (cat, name)
    if key in _ENVELOPE_SPANS:
        return None
    exact = _SPAN_COMPONENT.get(key)
    if exact is not None:
        return exact
    if cat == "xfer":
        # Fabric hops run cut-through, concurrent with the device link hop:
        # they re-time bytes already charged to a device-local xfer span.
        return None if name == "fabric" else "transfer"
    if cat == "fw":
        return "firmware"
    if cat == "driver":
        return "driver"
    if cat == "port":
        return "port_wait"
    return None


def component_of(event: TraceEvent) -> Optional[str]:
    """The attribution component a span argues for, or None (envelope)."""
    return _component(event.cat, event.name)


#: Rank of the residual: what the sweep charges when no span is active.
_OTHER = len(COMPONENTS) - 1


@functools.lru_cache(maxsize=None)
def _rank(cat: str, name: str) -> int:
    """A span kind's rank in :data:`COMPONENTS` (-1: not attributable).

    Memoised — the taxonomy is a few dozen kinds — so the per-event passes
    pay one probe instead of :func:`component_of`'s chain of tests.
    """
    component = _component(cat, name)
    return -1 if component is None else COMPONENTS.index(component)


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
    """Split a tagged stream into per-query traces, first-appearance order.

    One dict probe per event, keyed by the full qid path (a path is split to
    its root the first time it is seen); a query's bounds and tenant (the
    first non-empty one) are tracked in the same pass.
    """
    by_root: Dict[str, List[Any]] = {}   # root -> QueryTrace fields, mutable
    by_path: Dict[str, List[Any]] = {}   # every qid path -> its root's record
    for event in events:
        ts, dur, _cat, _name, _track, args = event
        if not args:
            continue
        qid = args.get("q")
        if qid is None:
            continue
        end = ts + dur if dur else ts
        record = by_path.get(qid)
        if record is None:
            root = qid_root(qid)
            record = by_root.get(root)
            if record is None:
                record = by_root[root] = [root, "", [], ts, end]
            by_path[qid] = record
        record[2].append(event)
        if not record[1]:
            record[1] = args.get("tn", "")
        if ts < record[3]:
            record[3] = ts
        if end > record[4]:
            record[4] = end
    return [QueryTrace(*record) for record in by_root.values()]


# -------------------------------------------------------------- critical path
def critical_path(trace: QueryTrace) -> List[TraceEvent]:
    """Backward last-finisher walk from the query's end to its start.

    At each cursor position, the step is the attributable span active there
    that finished latest (ties: later start, then later emission); the
    cursor jumps to its start.  When nothing is active, the cursor jumps to
    the latest span end at or before it (a scheduling gap).  Envelope spans
    are skipped — their interiors, not their outlines, explain the latency.
    Returned in forward (start-to-end) order.

    One sort, one walk: the cursor only moves back, so in (end, start,
    emission) order, latest first, every span is looked at once — it is
    the step, or it starts at or after the cursor and can never be active
    again, or it ends before the cursor and is the gap's far side.
    """
    spans: List[TraceEvent] = []
    order: List[Tuple[int, int, int]] = []   # (end, start, index in spans)
    for event in trace.events:
        ts, dur, cat, name, _track, _args = event
        if dur is None or dur <= 0:
            continue
        rank = _rank(cat, name)
        if rank < 0:
            continue
        order.append((ts + dur, ts, len(spans)))
        spans.append(event)
    order.sort(reverse=True)
    path: List[TraceEvent] = []
    cursor, start = trace.end_ns, trace.start_ns
    for end, ts, index in order:
        if cursor <= start:
            break
        if end < cursor:
            # Nothing is active at the cursor: a scheduling gap.
            cursor = end
            if cursor <= start:
                break
        if ts < cursor:
            path.append(spans[index])
            cursor = ts
    path.reverse()
    return path


# ---------------------------------------------------------------- attribution
def attribute_query(trace: QueryTrace) -> Dict[str, int]:
    """Partition one query's latency into components; exact by construction.

    Returns ``{component: ns}`` over :data:`COMPONENTS` plus
    ``end_to_end`` — and ``sum(components) == end_to_end`` always, because
    the sweep charges every elementary segment of the envelope to exactly
    one component.

    Each attributable span, clipped to the envelope, becomes an *open* and
    a *close* edge packed into one int — ``(t << 5) | (rank << 1) | open``
    — so a plain sort orders them by time.  The sweep keeps a count of
    active spans per rank and the best (lowest) active rank, and charges
    ``t - cursor`` to it whenever time advances; edges at one instant
    charge nothing between them, so their order there cannot matter.
    """
    start, end = trace.start_ns, trace.end_ns
    edges: List[int] = []
    for ts, dur, cat, name, _track, _args in trace.events:
        if dur is None or dur <= 0:
            continue
        rank = _rank(cat, name)
        if rank < 0:
            continue
        close = ts + dur
        if ts < start:
            ts = start
        if close > end:
            close = end
        if ts >= close:
            continue    # nothing of it lies inside the envelope
        edges.append((ts << 5) | (rank << 1) | 1)
        edges.append((close << 5) | (rank << 1))
    edges.sort()
    charged = [0] * len(COMPONENTS)
    active = [0] * len(COMPONENTS)
    best = _OTHER       # nothing active: the time is nobody's
    cursor = start
    for edge in edges:
        t = edge >> 5
        if t > cursor:
            charged[best] += t - cursor
            cursor = t
        rank = (edge >> 1) & 15
        if edge & 1:
            active[rank] += 1
            if rank < best:
                best = rank
        else:
            active[rank] -= 1
            if rank == best and not active[rank]:
                # The best rank closed: the next active one takes over.
                while best < _OTHER and not active[best]:
                    best += 1
    charged[_OTHER] += end - cursor
    totals = dict(zip(COMPONENTS, charged))
    totals["end_to_end"] = end - start
    assert sum(charged) == totals["end_to_end"], \
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


def attribute(events: Sequence[TraceEvent]) -> AttributionReport:
    """Decompose every tagged query in ``events``; see module docstring."""
    return attribute_traces(group_queries(events))


def attribute_traces(traces: Sequence[QueryTrace]) -> AttributionReport:
    """:func:`attribute` for a stream :func:`group_queries` already split."""
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
        ordered = sorted(queries, key=lambda row: (row["end_to_end"], row["qid"]))
        for quantile in (0.50, 0.95, 0.99):
            row = order_statistic(ordered, quantile)
            label = ("p%g" % (quantile * 100)).replace(".", "_")
            percentiles[label] = {name: row[name]
                                  for name in COMPONENTS + ("end_to_end",)}
    mean: Dict[str, int] = {}
    if queries:
        for name in COMPONENTS + ("end_to_end",):
            mean[name] = sum(row[name] for row in queries) // len(queries)
    return AttributionReport(queries, tenants, percentiles, mean)
