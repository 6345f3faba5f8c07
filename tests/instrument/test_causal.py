"""Causal tracing: context propagation, critical paths, and the exact
(ns-integer) tail-latency attribution."""

import pytest

from repro.host.platform import System
from repro.instrument.causal import (
    COMPONENTS,
    attribute,
    attribute_query,
    critical_path,
    group_queries,
)
from repro.instrument.events import EventBus, TraceContext, TraceEvent
from repro.sim.engine import Simulator
from repro.sim.units import MIB


def make_bus():
    sim = Simulator()
    return sim, EventBus(sim)


def span(ts, dur, cat, name, track="host/x", q="q1", **extra):
    args = {"q": q}
    args.update(extra)
    return TraceEvent(ts, dur, cat, name, track, args)


# --------------------------------------------------------- context plumbing
class TestTraceContext:
    def test_root_strips_child_suffixes(self):
        ctx = TraceContext("storm/q3")
        child = ctx.child("hedge0")
        assert child.qid == "storm/q3+hedge0"
        assert child.root == "storm/q3"
        assert child.child("retry1").root == "storm/q3"

    def test_scope_tags_emissions(self):
        _sim, bus = make_bus()
        with bus.scope("q1", "tenantA"):
            bus.instant("t", "point", "host/x")
            bus.complete("t", "work", "host/x", 0)
        bus.instant("t", "untagged", "host/x")
        assert bus.events[0].args == {"q": "q1", "tn": "tenantA"}
        assert bus.events[1].args["q"] == "q1"
        assert bus.events[2].args is None

    def test_scopes_nest_and_restore(self):
        _sim, bus = make_bus()
        with bus.scope("outer"):
            with bus.scope("inner"):
                bus.instant("t", "a", "host/x")
            bus.instant("t", "b", "host/x")
        assert bus.events[0].args["q"] == "inner"
        assert bus.events[1].args["q"] == "outer"
        assert bus.ctx is None

    def test_child_scope_extends_qid(self):
        _sim, bus = make_bus()
        with bus.scope("q1", "tA"):
            with bus.child_scope("hedge0") as child:
                assert child.qid == "q1+hedge0"
                bus.instant("t", "leg", "host/x")
        assert bus.events[0].args == {"q": "q1+hedge0", "tn": "tA"}

    def test_child_scope_is_noop_without_context(self):
        _sim, bus = make_bus()
        with bus.child_scope("orphan") as child:
            assert child is None
            bus.instant("t", "x", "host/x")
        assert bus.events[0].args is None

    def test_scope_survives_yields_per_fiber(self):
        """Two interleaved fibers each keep their own context across
        resumes — the engine restores the fiber's ctx on every step."""
        sim, bus = make_bus()

        def fiber(qid, delay):
            with bus.scope(qid):
                yield sim.timeout(delay)
                bus.instant("t", "after", "host/x")
                yield sim.timeout(delay)
                bus.instant("t", "later", "host/x")

        sim.process(fiber("qA", 100), name="a")
        sim.process(fiber("qB", 30), name="b")
        sim.run()
        tags = sorted(event.args["q"] for event in bus.events)
        assert tags == ["qA", "qA", "qB", "qB"]

    def test_spawned_fiber_inherits_spawning_context(self):
        sim, bus = make_bus()

        def child():
            yield sim.timeout(50)
            bus.instant("t", "child", "host/x")

        def parent():
            with bus.scope("q1"):
                sim.process(child(), name="child")
                yield sim.timeout(1)
            yield sim.timeout(100)
            bus.instant("t", "parent-after", "host/x")

        sim.process(parent(), name="parent")
        sim.run()
        by_name = {event.name: event for event in bus.events}
        # The child keeps the context it was spawned under even after the
        # parent's scope closed; the parent's later emission is untagged.
        assert by_name["child"].args["q"] == "q1"
        assert by_name["parent-after"].args is None


# -------------------------------------------------------------- query groups
class TestGroupQueries:
    def test_child_suffixes_group_under_root(self):
        events = [
            span(0, 10, "nand", "read", q="q1"),
            span(5, 10, "resil", "hedge-wait", q="q1+hedge0"),
            span(20, 10, "nand", "read", q="q2"),
        ]
        traces = group_queries(events)
        assert [t.qid for t in traces] == ["q1", "q2"]
        assert len(traces[0].events) == 2
        assert traces[0].start_ns == 0 and traces[0].end_ns == 15
        assert traces[0].latency_ns == 15

    def test_untagged_events_ignored(self):
        events = [TraceEvent(0, 10, "nand", "read", "ssd0/ch0", None),
                  span(0, 5, "fw", "dispatch")]
        traces = group_queries(events)
        assert len(traces) == 1
        assert len(traces[0].events) == 1


# --------------------------------------------------------------- attribution
class TestAttribution:
    def test_conservation_priority_and_residual(self):
        events = [
            span(0, 100, "nand", "read"),
            span(50, 30, "nand", "read-failed"),  # ecc outranks nand busy
            span(100, 40, "xfer", "d2h"),
            span(160, 20, "fw", "dispatch"),      # 140..160 is uncovered
        ]
        totals = attribute_query(group_queries(events)[0])
        assert totals["end_to_end"] == 180
        assert totals["ecc_retry"] == 30
        assert totals["nand_busy"] == 70
        assert totals["transfer"] == 40
        assert totals["firmware"] == 20
        assert totals["other"] == 20
        assert sum(totals[name] for name in COMPONENTS) == 180

    def test_envelope_spans_fall_to_other(self):
        events = [
            span(0, 100, "ctrl", "read"),   # envelope: never a source
            span(10, 20, "nand", "read"),
        ]
        totals = attribute_query(group_queries(events)[0])
        assert totals["nand_busy"] == 20
        assert totals["other"] == 80

    def test_fabric_hops_not_double_charged(self):
        events = [
            span(0, 50, "xfer", "fabric"),
            span(0, 30, "xfer", "d2h"),
        ]
        totals = attribute_query(group_queries(events)[0])
        assert totals["transfer"] == 30
        assert totals["other"] == 20

    def test_waits_rank_below_concurrent_work(self):
        events = [
            span(0, 100, "resil", "hedge-wait"),
            span(20, 30, "nand", "read"),
        ]
        totals = attribute_query(group_queries(events)[0])
        assert totals["nand_busy"] == 30
        assert totals["hedge_wait"] == 70

    def test_percentile_rows_are_exact_order_statistics(self):
        events = []
        for index in range(10):
            events.append(span(index * 1000, (index + 1) * 100,
                               "nand", "read", q="q%d" % index))
        report = attribute(events)
        assert report.percentiles["p50"]["end_to_end"] == 500
        assert report.percentiles["p99"]["end_to_end"] == 1000
        assert report.mean["end_to_end"] == 550

    def test_render_and_json_stable(self):
        events = [span(0, 100, "nand", "read", tn="tA")]
        report = attribute(events)
        assert report.to_json() == attribute(events).to_json()
        rendered = report.render()
        assert "q1" in rendered and "percentile decomposition" in rendered


# -------------------------------------------------------------- critical path
class TestCriticalPath:
    def test_serial_chain(self):
        events = [
            span(0, 10, "driver", "submit"),
            span(10, 50, "nand", "read", track="ssd0/ch0"),
            span(60, 20, "xfer", "d2h"),
            span(80, 5, "driver", "complete"),
        ]
        path = critical_path(group_queries(events)[0])
        assert [(e.cat, e.name) for e in path] == [
            ("driver", "submit"), ("nand", "read"),
            ("xfer", "d2h"), ("driver", "complete")]

    def test_last_finisher_wins_overlap(self):
        events = [
            span(0, 40, "nand", "read", track="ssd0/ch0"),
            span(0, 90, "nand", "read", track="ssd0/ch1"),
        ]
        path = critical_path(group_queries(events)[0])
        assert len(path) == 1
        assert path[0].track == "ssd0/ch1"

    def test_gap_jumps_to_latest_earlier_end(self):
        events = [
            span(0, 10, "fw", "dispatch"),
            span(30, 10, "xfer", "d2h"),
        ]
        path = critical_path(group_queries(events)[0])
        assert [(e.cat, e.name) for e in path] == [
            ("fw", "dispatch"), ("xfer", "d2h")]

    def test_envelopes_never_on_path(self):
        events = [
            span(0, 100, "ctrl", "read"),
            span(0, 100, "nand", "read", track="ssd0/ch0"),
        ]
        path = critical_path(group_queries(events)[0])
        assert [(e.cat, e.name) for e in path] == [("nand", "read")]


# ------------------------------------------------------------- whole systems
def _traced_system(**kwargs):
    sim = Simulator()
    bus = EventBus(sim)
    return System(sim=sim, **kwargs), bus


class TestEndToEnd:
    def test_table3_conservation_is_exact(self):
        from repro.bench.experiments import exp_table3_read_latency
        system, bus = _traced_system()
        exp_table3_read_latency(samples=4, system=system)
        report = attribute(bus.events)
        assert len(report.queries) == 8  # 4 conv + 4 internal
        for row in report.queries:
            assert sum(row[name] for name in COMPONENTS) == row["end_to_end"]
            assert row["nand_busy"] > 0
        conv = [r for r in report.queries if r["qid"].startswith("table3/conv")]
        internal = [r for r in report.queries
                    if r["qid"].startswith("table3/int")]
        assert len(conv) == len(internal) == 4
        # The host path pays driver + transfer; the internal path does not.
        assert all(r["driver"] > 0 and r["transfer"] > 0 for r in conv)
        assert all(r["driver"] == 0 for r in internal)

    def test_table3_critical_path_is_contiguous(self):
        from repro.bench.experiments import exp_table3_read_latency
        system, bus = _traced_system()
        exp_table3_read_latency(samples=2, system=system)
        trace = group_queries(bus.events)[0]
        path = critical_path(trace)
        assert path, "empty critical path"
        assert path[0].ts_ns == trace.start_ns
        assert path[-1].end_ns == trace.end_ns
        for step, following in zip(path, path[1:]):
            assert following.end_ns >= step.end_ns

    def test_serve_mix_conservation_and_tenants(self):
        from repro.serve.mixes import run_mix
        result = run_mix("smoke", trace=True)
        assert result.bus is not None
        report = attribute(result.bus.events)
        assert report.queries
        for row in report.queries:
            assert sum(row[name] for name in COMPONENTS) == row["end_to_end"]
        tenants = [row["tenant"] for row in report.tenants]
        assert tenants == sorted(tenants)
        assert all(tenants), "serve queries must carry tenant identity"

    def test_attribution_deterministic_across_runs(self):
        from repro.bench.experiments import exp_table3_read_latency

        def one_run():
            system, bus = _traced_system()
            exp_table3_read_latency(samples=4, system=system)
            return attribute(bus.events).to_json()

        assert one_run() == one_run()

    def test_tracing_never_changes_timing(self):
        from repro.bench.experiments import exp_table3_read_latency
        traced_system, _bus = _traced_system()
        traced = exp_table3_read_latency(samples=4, system=traced_system)
        untraced = exp_table3_read_latency(samples=4, system=System())
        assert traced == untraced


# ------------------------------------------------------- registry surfacing
class TestRegistryCounters:
    def test_resilience_counters_live_in_system_registry(self):
        from repro.resilience import (
            HedgePolicy, RecoveryTracker, ResilientScanDriver, RetryPolicy,
        )
        system = System(num_ssds=2)
        driver = ResilientScanDriver(
            system, policy=RetryPolicy(), hedge=HedgePolicy(),
            recovery=RecoveryTracker(system.sim))
        driver.stats.retries += 1
        driver.hedge.hedges_fired += 1
        driver.recovery.note_fault(0)
        registry = system.metrics
        assert registry.counter("resilience.retries").value == 1
        assert registry.counter("resilience.hedge.hedges_fired").value == 1
        assert registry.counter("resilience.recovery.faults_noted").value == 1

    def test_race_counters_live_in_system_registry(self):
        system = System(sim=Simulator(race_check=True))
        assert system.sim.race is not None
        system.fs.install_synthetic("/t.dat", 1 * MIB)
        handle = system.open_host("/t.dat")

        def program():
            yield from handle.read_timing_only(0, 4096)

        system.run_fiber(program())
        assert system.metrics.counter("race.batches").value > 0
        assert system.metrics.counter("race.entries").value > 0
