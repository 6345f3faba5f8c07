"""Per-command latency decomposition reconstructed from trace events.

Table 3 of the paper decomposes a 4 KiB read round trip into driver,
firmware, NAND and transfer time.  This module rebuilds that composition
*from the event stream alone*: command envelopes come from the NVMe
lifecycle (``nvme/read`` complete spans for host commands) and from
controller command spans (``ctrl/read`` spans that sit inside no host
envelope are device-internal Biscuit reads); an envelope's components are
the attribution sweep (:func:`repro.instrument.causal.attribute_query`) run
over the spans that overlap it, folded to Table 3's columns:

* **driver** / **firmware** / **transfer** — the sweep's components of the
  same names (host submit/complete work; device-core command handling;
  host-interface crossing, fabric hops excluded).
* **nand** — the sweep's ``nand_busy``: sense + channel-bus transfer.
* **other** — every other component (queueing inside the SSD, ECC retries,
  port waits) plus the time no span claims.

The sweep charges each instant of the envelope to exactly one component, so
the columns tile it — they sum to the command's duration and ``other`` is
never negative, however many commands run concurrently (DESIGN.md
"Latency-breakdown semantics").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, NamedTuple, Sequence

from repro.instrument import causal
from repro.instrument.events import TraceEvent

__all__ = ["CommandBreakdown", "BreakdownAggregate", "LatencyBreakdownReport",
           "read_latency_breakdown"]

#: Component order used by every report row.
COMPONENTS = ("driver", "firmware", "nand", "transfer", "other")

#: Attribution component -> report column; every other one folds to "other".
_COLUMN = {"driver": "driver", "firmware": "firmware", "nand_busy": "nand",
           "transfer": "transfer"}


class CommandBreakdown(NamedTuple):
    """One command envelope tiled into component times (ns)."""

    kind: str                    #: "host" | "internal"
    start_ns: int
    dur_ns: int
    components: Dict[str, int]   #: ns per column of :data:`COMPONENTS`


class BreakdownAggregate:
    """Mean composition over a set of command breakdowns."""

    def __init__(self, kind: str, commands: Sequence[CommandBreakdown]):
        self.kind = kind
        self.commands = list(commands)

    @property
    def count(self) -> int:
        return len(self.commands)

    @property
    def mean_total_us(self) -> float:
        if not self.commands:
            return 0.0
        return sum(c.dur_ns for c in self.commands) / len(self.commands) / 1e3

    def mean_component_us(self, component: str) -> float:
        if not self.commands:
            return 0.0
        total = sum(c.components[component] for c in self.commands)
        return total / len(self.commands) / 1e3

    def composition(self) -> Dict[str, float]:
        """Mean per-command microseconds for every component."""
        return {name: self.mean_component_us(name) for name in COMPONENTS}


class LatencyBreakdownReport:
    """Host (Conv) and internal (Biscuit) read-latency compositions."""

    def __init__(self, host: BreakdownAggregate, internal: BreakdownAggregate):
        self.host = host
        self.internal = internal

    def format(self) -> str:
        header = ("path", "cmds", "total") + COMPONENTS
        rows = []
        for aggregate in (self.host, self.internal):
            if not aggregate.count:
                continue
            composition = aggregate.composition()
            rows.append((
                aggregate.kind, "%d" % aggregate.count,
                "%.1f" % aggregate.mean_total_us,
            ) + tuple("%.1f" % composition[name] for name in COMPONENTS))
        if not rows:
            return "(no read commands in trace)"
        cells = [tuple(str(cell) for cell in header)] + rows
        widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
        lines = ["  ".join(cell.rjust(width) for cell, width in
                           zip(row, widths)) for row in cells]
        lines.insert(1, "  ".join("-" * width for width in widths))
        lines.append("(mean us per command; components tile the envelope)")
        return "\n".join(lines)


class _SpanIndex:
    """Spans sorted by start time: the ones near an interval by bisection,
    so decomposing a long trace is not one full scan per command."""

    def __init__(self, spans: Iterable[TraceEvent]):
        self.spans = sorted(spans, key=lambda span: span.ts_ns)
        self.starts = [span.ts_ns for span in self.spans]
        self.longest_ns = max((span.dur_ns for span in self.spans), default=0)

    def overlapping(self, start_ns: int, end_ns: int) -> List[TraceEvent]:
        """Spans sharing time with ``[start_ns, end_ns)``."""
        low = bisect_left(self.starts, start_ns - self.longest_ns)
        high = bisect_left(self.starts, end_ns)
        return [span for span in self.spans[low:high] if span.end_ns > start_ns]

    def covers(self, event: TraceEvent) -> bool:
        """True when some span contains ``event``'s whole interval."""
        low = bisect_left(self.starts, event.ts_ns - self.longest_ns)
        high = bisect_right(self.starts, event.ts_ns)
        return any(span.end_ns >= event.end_ns for span in self.spans[low:high])


def _decompose(kind: str, envelope: TraceEvent,
               work: _SpanIndex) -> CommandBreakdown:
    start_ns, end_ns = envelope.ts_ns, envelope.end_ns
    totals = causal.attribute_query(causal.QueryTrace(
        "", "", work.overlapping(start_ns, end_ns), start_ns, end_ns))
    components = dict.fromkeys(COMPONENTS, 0)
    for name in causal.COMPONENTS:
        components[_COLUMN.get(name, "other")] += totals[name]
    return CommandBreakdown(kind, start_ns, end_ns - start_ns, components)


def read_latency_breakdown(events: Iterable[TraceEvent]) -> LatencyBreakdownReport:
    """Reconstruct the Table 3 read round-trip composition from events."""
    spans = [event for event in events if event.dur_ns is not None]
    host = [event for event in spans
            if event.cat == "nvme" and event.name == "read"]
    host_index = _SpanIndex(host)
    internal = [event for event in spans
                if event.cat == "ctrl" and event.name == "read"
                and not host_index.covers(event)]
    work = _SpanIndex(span for span in spans
                      if span.dur_ns > 0
                      and causal.component_of(span) is not None)
    return LatencyBreakdownReport(
        BreakdownAggregate("host", [
            _decompose("host", envelope, work) for envelope in host]),
        BreakdownAggregate("internal", [
            _decompose("internal", envelope, work) for envelope in internal]),
    )
