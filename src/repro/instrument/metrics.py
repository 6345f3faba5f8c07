"""Metrics registry: counters, gauges, histograms and time series.

One registry per :class:`~repro.host.platform.System` unifies every running
statistic the stack keeps — controller :class:`~repro.ssd.controller.ReadStats`
counters, :class:`~repro.ssd.cache.CacheStats` counters and the
:class:`~repro.instrument.utilization.UtilizationMonitor` series are all
registered metrics, so one ``snapshot()`` (or ``to_json()``) captures the
whole device state machine-readably and deterministically.

Two ways to publish a count, one reason each (DESIGN.md "Metrics registry"):
an owner with a *fixed* set of counters keeps them as plain ``int``
attributes (``stats.read_commands += 1`` costs no call) and
:meth:`MetricsRegistry.attach` tells the registry where to read them; a
name known only at run time (``serve.tenant.<t>.completed``) is a
``registry.counter(name).inc()``.

Metric kinds:

* :class:`Counter` — monotonically increasing int: its own ``inc()`` calls
  plus every attribute attached under its name, read when asked.
* :class:`Gauge` — last-write-wins scalar.
* :class:`Histogram` — raw samples; a quantile is the order statistic, a
  sample that occurred (simulation-scale sample counts are small; exactness
  beats bucketing for calibration work).
* :class:`Series` — (simulated-seconds, value) points; snapshots summarize
  (count/mean/peak/last) so sidecar files stay small.

Determinism contract: names are explicit strings (never derived from hashes
or object ids), ``snapshot()`` orders by sorted name, and ``to_json()`` uses
sorted keys and fixed separators — the byte stream depends only on the
simulated run, never on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union,
)

__all__ = ["Counter", "Counters", "Gauge", "Histogram", "Series",
           "MetricsRegistry", "order_statistic"]

T = TypeVar("T")


def order_statistic(ordered: Sequence[T], quantile: float) -> T:
    """The exact order statistic of a sorted, non-empty sequence: its
    smallest element with rank >= quantile * n.  No interpolation, so a
    reported p99 is a sample that occurred.  This is the repository's one
    rank rule: the hedge deadline, the attribution percentiles, the bench
    latencies and every :meth:`Histogram.quantile` use it."""
    rank = max(0, min(len(ordered) - 1,
                      int(quantile * len(ordered) + 0.999999) - 1))
    return ordered[rank]


class Counter:
    """A monotonically increasing count, read when asked.

    The value is the counter's own :meth:`inc` calls plus the current value of
    every ``owner.attribute`` attached under its name, so several owners
    publishing one name add up while each reads only its own attribute.
    Sources are held strongly: a count is history, and must not drop when
    its owner does.
    """

    __slots__ = ("name", "_own", "_sources")

    def __init__(self, name: str):
        self.name = name
        self._own = 0
        self._sources: List[Tuple[Any, str]] = []

    def inc(self, amount: int = 1) -> None:
        self._own += amount

    def attach(self, owner: Any, attribute: str) -> None:
        """Count ``owner.attribute`` in; a no-op the second time."""
        for known, name in self._sources:
            if known is owner and name == attribute:
                return
        self._sources.append((owner, attribute))

    @property
    def value(self) -> int:
        return self._own + sum(getattr(owner, attribute)
                               for owner, attribute in self._sources)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Raw-sample histogram whose quantiles are order statistics."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """``order_statistic`` over the sorted samples; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile %r outside [0, 1]" % (q,))
        if not self.samples:
            return 0.0
        return order_statistic(sorted(self.samples), q)

    def snapshot(self) -> Dict[str, Any]:
        if not self.samples:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": min(self.samples),
            "max": max(self.samples),
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Series:
    """(simulated-seconds, value) points appended on a sampling grid."""

    __slots__ = ("name", "points")

    def __init__(self, name: str):
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def add(self, when_s: float, value: float) -> None:
        self.points.append((when_s, value))

    @property
    def count(self) -> int:
        return len(self.points)

    def mean(self) -> float:
        if not self.points:
            return 0.0
        return sum(value for _, value in self.points) / len(self.points)

    def peak(self) -> float:
        return max((value for _, value in self.points), default=0.0)

    def snapshot(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {"type": "series", "count": self.count}
        if self.points:
            summary.update({
                "mean": self.mean(),
                "peak": self.peak(),
                "last": self.points[-1][1],
            })
        return summary


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram,
          "series": Series}

Metric = Union[Counter, Gauge, Histogram, Series]


class MetricsRegistry:
    """Named metrics with get-or-create registration.

    Registration is idempotent per (name, kind): asking again returns the
    same object, so several observers may share a metric; asking for an
    existing name with a different kind is an error (names are a flat global
    namespace — dotted prefixes like ``ssd0.cache.hits`` scope them).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ---------------------------------------------------------- registration
    def _get_or_create(self, kind: str, name: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, _KINDS[kind]):
                raise ValueError(
                    "metric %r already registered as %s, not %s"
                    % (name, type(existing).__name__.lower(), kind))
            return existing
        metric = _KINDS[kind](name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create("counter", name)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create("gauge", name)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create("histogram", name)  # type: ignore[return-value]

    def series(self, name: str) -> Series:
        return self._get_or_create("series", name)  # type: ignore[return-value]

    def attach(self, prefix: str, owner: Any, fields: Iterable[str]) -> None:
        """Publish ``owner``'s int attributes ``fields`` as the counters
        ``<prefix>.<field>`` (see :meth:`Counter.attach`)."""
        for field in fields:
            self.counter("%s.%s" % (prefix, field)).attach(owner, field)

    # ----------------------------------------------------------------- query
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One nested dict over every metric, ordered by sorted name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def to_json(self, extra: Optional[Dict[str, Any]] = None) -> str:
        """Deterministic JSON rendering of :meth:`snapshot`.

        ``extra`` entries (workload name, schema version...) are merged at
        the top level next to ``"metrics"``.
        """
        payload: Dict[str, Any] = {"metrics": self.snapshot()}
        if extra:
            payload.update(extra)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class Counters:
    """A fixed set of counters kept as plain ``int`` attributes.

    Subclasses name them in ``FIELDS``; given a registry, the instance is
    attached under ``prefix`` so snapshots read the attributes in place.
    """

    FIELDS: Tuple[str, ...] = ()

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 prefix: str = "") -> None:
        for field in self.FIELDS:
            setattr(self, field, 0)
        if registry is not None:
            registry.attach(prefix, self, self.FIELDS)

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}
