"""Instrumentation: event tracing, metrics and utilization timelines.

Simulation answers "how long"; these tools answer "why".

* :class:`EventBus` — structured trace events from every layer (NVMe
  lifecycle, NAND page ops, FTL GC, read cache, matchers, SSDlet fibers,
  ports), hung off the :class:`~repro.sim.engine.Simulator` and free when
  off (``sim.trace is None``).
* :mod:`~repro.instrument.perfetto` — export an event stream as Chrome
  trace-event JSON, loadable in Perfetto / ``chrome://tracing``.
* :class:`MetricsRegistry` — counters, gauges, histograms and series under
  one snapshot; controller/cache stats and the utilization monitor register
  here.
* :func:`read_latency_breakdown` — rebuild the paper's Table III read
  round-trip composition (driver / firmware / NAND / transfer) from events.
* :class:`UtilizationMonitor` — resource utilization sparklines.

Run ``python -m repro.instrument --workload string_search`` to trace a
named bench workload end to end.
"""

from repro.instrument.breakdown import (
    BreakdownAggregate,
    CommandBreakdown,
    LatencyBreakdownReport,
    read_latency_breakdown,
)
from repro.instrument.events import EventBus, TraceEvent
from repro.instrument.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.instrument.perfetto import (
    chrome_trace,
    render_chrome_trace,
    write_chrome_trace,
)
from repro.instrument.utilization import UtilizationMonitor

__all__ = [
    "EventBus", "TraceEvent",
    "chrome_trace", "render_chrome_trace", "write_chrome_trace",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "Series",
    "read_latency_breakdown", "LatencyBreakdownReport",
    "BreakdownAggregate", "CommandBreakdown",
    "UtilizationMonitor",
]
