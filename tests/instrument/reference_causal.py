"""The quadratic passes ``instrument/causal.py`` had before the sweep rewrite.

Kept verbatim as the oracle ``test_causal_equivalence.py`` compares the
O(n log n) passes against: same inputs, equal outputs, key order included.
Not collected by pytest (no ``test_`` prefix) and imported by nothing under
``src/``.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.instrument.causal import (
    COMPONENTS,
    QueryTrace,
    component_of,
)
from repro.instrument.events import TraceEvent


def _qid_root(event: TraceEvent) -> Optional[str]:
    args = event.args
    if not args:
        return None
    qid = args.get("q")
    if qid is None:
        return None
    return qid.split("+", 1)[0]


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
