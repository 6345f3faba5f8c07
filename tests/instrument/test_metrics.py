"""MetricsRegistry, metric kinds, and stats owners attached to a registry."""

import pytest

from repro.host.platform import System
from repro.instrument.metrics import Counters, Histogram, MetricsRegistry
from repro.resilience import (
    HedgePolicy, RecoveryTracker, ResilientScanDriver,
)
from repro.sim.engine import Simulator
from repro.sim.units import MIB
from repro.ssd.cache import CacheStats
from repro.ssd.config import SSDConfig
from repro.ssd.controller import ReadStats


# ------------------------------------------------------------------- registry
def test_get_or_create_is_idempotent():
    registry = MetricsRegistry()
    counter = registry.counter("ssd.io.reads")
    assert registry.counter("ssd.io.reads") is counter
    counter.inc(3)
    assert registry.counter("ssd.io.reads").value == 3


def test_kind_conflict_rejected():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_snapshot_sorted_and_typed():
    registry = MetricsRegistry()
    registry.gauge("b.gauge").set(2.5)
    registry.counter("a.count").inc()
    snap = registry.snapshot()
    assert list(snap) == ["a.count", "b.gauge"]
    assert snap["a.count"] == {"type": "counter", "value": 1}
    assert snap["b.gauge"] == {"type": "gauge", "value": 2.5}


def test_to_json_deterministic_and_merges_extra():
    registry = MetricsRegistry()
    registry.counter("n").inc(7)
    first = registry.to_json(extra={"workload": "w"})
    second = registry.to_json(extra={"workload": "w"})
    assert first == second
    assert '"workload": "w"' in first
    assert first.endswith("\n")


# ------------------------------------------------------------------ histogram
def test_histogram_exact_quantiles():
    hist = Histogram("lat")
    for value in [10.0, 20.0, 30.0, 40.0]:
        hist.observe(value)
    assert hist.quantile(0.0) == 10.0
    assert hist.quantile(1.0) == 40.0
    assert hist.quantile(0.5) == 20.0  # an order statistic: a sample
    snap = hist.snapshot()
    assert snap["count"] == 4 and snap["mean"] == 25.0


def test_histogram_empty_and_bad_quantile():
    hist = Histogram("lat")
    assert hist.quantile(0.5) == 0.0
    assert hist.snapshot() == {"type": "histogram", "count": 0}
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_order_statistic_is_a_sample_never_an_interpolation():
    from repro.instrument.metrics import order_statistic

    ordered = list(range(1, 101))
    assert order_statistic(ordered, 0.50) == 50
    assert order_statistic(ordered, 0.99) == 99
    assert order_statistic(ordered, 1.0) == 100
    assert order_statistic([1, 2, 3, 4], 0.5) == 2  # not 2.5
    assert order_statistic([7], 0.99) == 7
    assert order_statistic([1, 2, 3], 0.0) == 1  # rank clamped into range


def test_histogram_quantile_is_the_order_statistic():
    from repro.instrument.metrics import order_statistic

    sample_sets = [
        [5.0],
        [3.0, 1.0],
        [10.0, 20.0, 30.0, 40.0],
        [9.5, 0.25, 7.0, 7.0, 3.125, 88.0, 1.5],
        [float((i * 37) % 101) for i in range(1, 100)],
    ]
    for samples in sample_sets:
        hist = Histogram("lat")
        for value in samples:
            hist.observe(value)
        for q in (0.0, 0.5, 0.9, 0.95, 0.99, 1.0):
            got = hist.quantile(q)
            assert got in samples
            assert got == order_statistic(sorted(samples), q)


# ----------------------------------------------------- attached stats owners
class _Hits(Counters):
    FIELDS = ("hits",)


def test_attach_contract():
    registry = MetricsRegistry()
    stats = _Hits(registry, "t")
    stats.hits += 1
    stats.hits += 1
    counter = registry.counter("t.hits")
    # Read through the registry when asked, never copied into it.
    assert stats.hits == 2 and counter.value == 2
    assert registry.snapshot()["t.hits"] == {"type": "counter", "value": 2}
    assert stats.as_dict() == {"hits": 2}
    # The counter's own inc()s and its attached sources add.
    counter.inc(5)
    assert counter.value == 7 and stats.hits == 2
    # Attaching the same (owner, field) again does not double it.
    registry.attach("t", stats, _Hits.FIELDS)
    assert counter.value == 7
    # Two owners under one name add up; each reads only its own.
    other = _Hits(registry, "t")
    other.hits += 1
    assert (stats.hits, other.hits) == (2, 1) and counter.value == 8
    # A counter is read, not assigned.
    with pytest.raises(AttributeError):
        counter.value = 0


@pytest.mark.parametrize("kind", ["gauge", "histogram", "series"])
def test_attach_refuses_a_name_of_another_kind(kind):
    registry = MetricsRegistry()
    getattr(registry, kind)("t.hits")
    with pytest.raises(ValueError):
        _Hits(registry, "t")


def test_cache_stats_register_under_prefix():
    registry = MetricsRegistry()
    stats = CacheStats(registry=registry, prefix="ssd0.cache")
    stats.hits += 3
    stats.misses += 1
    assert registry.counter("ssd0.cache.hits").value == 3
    assert stats.lookups == 4
    assert stats.hit_rate == 0.75


def test_read_stats_register_under_prefix():
    registry = MetricsRegistry()
    stats = ReadStats(registry=registry, prefix="ssd0.io")
    stats.read_commands += 2
    stats.logical_pages_read += 8
    assert registry.counter("ssd0.io.read_commands").value == 2
    assert stats.bytes_read == 8 * 4096  # derived property still works


def test_stats_standalone_without_registry():
    """No registry ⇒ the counters are just attributes."""
    stats = CacheStats()
    stats.hits += 1
    assert stats.lookups == 1


def test_system_wires_device_stats_into_registry():
    system = System()
    system.fs.install_synthetic("/d", 16 * MIB)
    handle = system.open_host("/d")

    def program():
        yield from handle.read_timing_only(0, 64 * 1024)

    system.run_fiber(program())
    snap = system.metrics.snapshot()
    assert snap["ssd0.io.read_commands"]["value"] > 0
    assert "ssd0.cache.hits" in snap
    # Controller stats and the registry view agree.
    assert (system.devices[0].controller.stats.read_commands
            == snap["ssd0.io.read_commands"]["value"])


# The full set of registry names, taken at the commit before attach() replaced
# the property shims: publishing must not rename, add or drop one.
_IO = ("coalesced_commands", "coalesced_stripes", "fused_commands",
       "fused_stripes", "logical_pages_read", "logical_pages_written",
       "matcher_commands", "read_commands", "read_retries", "recovered_reads",
       "unrecoverable_reads", "write_commands")
_CACHE = ("bypasses", "evictions", "hits", "insertions", "invalidations",
          "misses")
_RACE = ("race.batches", "race.entries", "race.hazards",
         "race.reversed_batches")
_RESILIENCE = (
    "resilience.crashes_seen", "resilience.device_errors",
    "resilience.failovers", "resilience.gave_up",
    "resilience.hedge.failovers", "resilience.hedge.hedge_wins",
    "resilience.hedge.hedges_fired", "resilience.hedge.primary_wins",
    "resilience.recovery.faults_noted", "resilience.resumes",
    "resilience.retries", "resilience.scans")


def _device_names(index):
    return (["ssd%d.cache.%s" % (index, field) for field in _CACHE]
            + ["ssd%d.io.%s" % (index, field) for field in _IO])


def _default_system():
    return System(), _device_names(0)


def _cached_system():
    return (System(ssd_config=SSDConfig(read_cache_bytes=1 * MIB)),
            _device_names(0))


def _race_checked_system():
    return (System(sim=Simulator(race_check=True)),
            list(_RACE) + _device_names(0))


def _system_with_resilient_driver():
    system = System(num_ssds=2)
    ResilientScanDriver(system, hedge=HedgePolicy(),
                        recovery=RecoveryTracker(system.sim))
    return system, list(_RESILIENCE) + _device_names(0) + _device_names(1)


@pytest.mark.parametrize("build", [
    _default_system, _cached_system, _race_checked_system,
    _system_with_resilient_driver])
def test_registry_names_are_pinned(build, monkeypatch):
    monkeypatch.delenv("REPRO_RACE_CHECK", raising=False)
    system, expected = build()
    assert system.metrics.names() == sorted(expected)


def test_utilization_monitor_registers_series(system):
    from repro.instrument.utilization import UtilizationMonitor
    from repro.sim.units import s_to_ns

    monitor = UtilizationMonitor.for_system(system, interval_s=0.001)
    monitor.start()
    system.sim.run(until=s_to_ns(0.005))
    monitor.stop()
    snap = system.metrics.snapshot()
    assert snap["util.host-cores"]["type"] == "series"
    assert snap["util.host-cores"]["count"] > 0
    # Legacy accessors still read the very same points.
    assert monitor.series["host-cores"] is system.metrics.series(
        "util.host-cores").points
