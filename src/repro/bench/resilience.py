"""The standing recovery benchmark: SQL goodput under a seeded fault storm.

One two-device system serves a stream of NDP filter queries through the
resilient scan driver while the primary device rides out a scripted storm
(ECC bursts, uncorrectable reads, channel stalls, periodic whole-device
crash windows) and the replica sees latency faults only.  Every query's
rows are differential-verified against the plain-Python reference — the
benchmark *fails* if recovery ever returns a wrong answer.

Reported: goodput (correct queries per simulated second), p50/p99 query
latency, the faulted-request fraction, and the full recovery scoreboard
(retries, resumes, failovers, hedges fired/won, crashes seen).  The run is
seeded and simulated-time only, so every number in
``benchmarks/results/resilience.metrics.json`` is byte-identical across
hosts and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.bench.harness import ExperimentResult
from repro.db.catalog import Column, TableSchema
from repro.db.storage import Database
from repro.host.platform import System
from repro.instrument.events import traced_simulator
from repro.instrument.metrics import order_statistic
from repro.resilience import (
    HedgePolicy,
    RecoveryTracker,
    ResilientScanDriver,
    RetryPolicy,
    ScanSpec,
)
from repro.testing.faults import (
    CrashWindow,
    FaultPlan,
    FaultStorm,
    StormInjector,
    StormPhase,
)

__all__ = ["exp_resilience", "run_resilience_bench"]

_SCHEMA = TableSchema(
    "stormy",
    [Column("k", "int"), Column("a", "int"), Column("b", "int")],
)


def _table_rows(num_rows: int, seed: int) -> List[tuple]:
    rng = random.Random(seed)
    return [(i, rng.randrange(1000), rng.randrange(97))
            for i in range(num_rows)]


def _primary_storm(seed: int) -> FaultStorm:
    """Error-capable weather for the primary: three long rate bursts plus a
    periodic train of short whole-device crash windows."""
    phases = (
        StormPhase(0.0, 40_000.0, FaultPlan(
            seed=seed, ecc_rate=0.03, uncorrectable_rate=0.008,
            stall_rate=0.01, stall_us=600.0)),
        StormPhase(40_000.0, 40_000.0, FaultPlan(
            seed=seed + 1, ecc_rate=0.05, spike_rate=0.02, spike_us=300.0)),
        StormPhase(80_000.0, 120_000.0, FaultPlan(
            seed=seed + 2, ecc_rate=0.02, uncorrectable_rate=0.004,
            stall_rate=0.005, stall_us=400.0)),
    )
    crashes = tuple(
        CrashWindow(start_us=25_000.0 + 50_000.0 * i, duration_us=1_500.0)
        for i in range(3)
    )
    return FaultStorm(phases=phases, crashes=crashes)


def _replica_storm(seed: int) -> FaultStorm:
    """Latency-only weather for the replica, so recovery always converges."""
    phases = (
        StormPhase(0.0, 200_000.0, FaultPlan(
            seed=seed + 100, spike_rate=0.02, spike_us=500.0,
            stall_rate=0.005, stall_us=700.0)),
    )
    return FaultStorm(phases=phases)


def _quantile_us(latencies_us: List[float], quantile: float) -> float:
    """Exact order statistic of unsorted latencies; 0.0 when there are none."""
    if not latencies_us:
        return 0.0
    return order_statistic(sorted(latencies_us), quantile)


def run_resilience_bench(num_queries: int = 24, num_rows: int = 12_000,
                         seed: int = 2016,
                         trace: bool = False) -> Dict[str, Any]:
    """One seeded storm run; returns the flat, JSON-ready report dict.

    ``trace=True`` attaches an event bus, scopes every query
    (``storm/q<i>``) and appends the per-component latency attribution to
    the report.  Tracing is pure observation (the fused fast path de-gates
    itself with bit-identical timing), so every pre-existing report value
    is unchanged by it.
    """
    rng = random.Random(seed)
    sim, bus = traced_simulator(trace)
    system = System(num_ssds=2, sim=sim)
    databases = []
    rows = _table_rows(num_rows, seed)
    for fs in system.filesystems:
        db = Database(fs)
        db.load_table(_SCHEMA, rows)
        databases.append(db)
    storage = databases[0].table(_SCHEMA.name)

    injector = StormInjector(system.sim, _primary_storm(seed))
    system.devices[0].attach_fault_injector(injector)
    replica_injector = StormInjector(system.sim, _replica_storm(seed))
    system.devices[1].attach_fault_injector(replica_injector)

    driver = ResilientScanDriver(
        system,
        policy=RetryPolicy(retry_limit=10, backoff_us=500.0,
                           checkpoint_pages=2),
        hedge=HedgePolicy(default_us=4_000.0),
        recovery=RecoveryTracker(system.sim),
    )

    # A stream of distinct filter queries over the shared table; each has a
    # plain-Python reference answer computed up front.
    queries = []
    for _ in range(num_queries):
        modulus = rng.choice((3, 5, 7, 11))
        residue = rng.randrange(modulus)
        column = rng.choice((1, 2))
        queries.append((column, modulus, residue))

    def make_predicate(column: int, modulus: int, residue: int):
        def predicate(rows):
            return [row for row in rows if row[column] % modulus == residue]
        return predicate

    latencies_us: List[float] = []
    faulted_queries = 0
    wrong_results = 0

    def workload():
        nonlocal faulted_queries, wrong_results
        for index, (column, modulus, residue) in enumerate(queries):
            predicate = make_predicate(column, modulus, residue)
            spec = ScanSpec(
                path=storage.path,
                page_rows=lambda page_no: databases[0].read_page_rows(
                    storage, page_no),
                prefilter=predicate,
                predicate=predicate,
                project=list,
                page_size=storage.page_size,
                num_pages=storage.num_pages,
                workers=2,
            )
            faults_before = (injector.faults_injected
                             + replica_injector.faults_injected)
            start_ns = system.sim.now
            with system.sim.scope("storm/q%d" % index):
                got = yield from driver.scan(spec, primary=0)
            latencies_us.append((system.sim.now - start_ns) / 1000.0)
            faults_after = (injector.faults_injected
                            + replica_injector.faults_injected)
            if faults_after > faults_before:
                faulted_queries += 1
            expected = predicate(rows)
            if got != expected:
                wrong_results += 1

    system.run_fiber(workload(), name="resilience-bench")

    elapsed_s = system.sim.now / 1e9
    report: Dict[str, Any] = {
        "seed": seed,
        "num_rows": num_rows,
        "queries": num_queries,
        "faulted_queries": faulted_queries,
        "faulted_fraction": round(faulted_queries / num_queries, 4),
        "wrong_results": wrong_results,
        "goodput_qps": round((num_queries - wrong_results) / elapsed_s, 3),
        "p50_us": round(_quantile_us(latencies_us, 0.50), 1),
        "p99_us": round(_quantile_us(latencies_us, 0.99), 1),
        "elapsed_sim_s": round(elapsed_s, 6),
    }
    for key, value in sorted(driver.counters().items()):
        report["driver_%s" % key] = value
    for key, value in sorted(injector.counters().items()):
        report["primary_%s" % key] = value
    for key, value in sorted(replica_injector.counters().items()):
        report["replica_%s" % key] = value
    if bus is not None:
        from repro.instrument.causal import COMPONENTS, attribute
        attribution = attribute(bus.events)
        for name in COMPONENTS + ("end_to_end",):
            report["attr_mean_%s_us" % name] = round(
                attribution.mean[name] / 1000.0, 1)
            report["attr_p99_%s_us" % name] = round(
                attribution.percentiles["p99"][name] / 1000.0, 1)
    return report


def exp_resilience() -> ExperimentResult:
    """The ``python -m repro.bench resilience`` entry point."""
    report = run_resilience_bench(trace=True)
    headers = ["metric", "value"]
    shown = [
        "queries", "faulted_queries", "faulted_fraction", "wrong_results",
        "goodput_qps", "p50_us", "p99_us",
        "driver_retries", "driver_resumes", "driver_failovers",
        "driver_hedges_fired", "driver_hedge_wins", "driver_crashes_seen",
        "primary_crashes_injected", "primary_uncorrectable_injected",
        "primary_ecc_injected", "primary_stalls_injected",
        "attr_p99_ecc_retry_us", "attr_p99_fault_recovery_us",
        "attr_p99_hedge_wait_us", "attr_p99_nand_busy_us",
    ]
    table_rows = [[name, report[name]] for name in shown]
    metrics = {key: float(value) for key, value in report.items()
               if isinstance(value, (int, float))}
    notes = [
        "every query differential-verified against the fault-free "
        "reference; wrong_results must be 0",
        "faulted_fraction counts queries whose run overlapped at least one "
        "injected fault",
    ]
    if report["wrong_results"]:
        notes.insert(0, "RESILIENCE FAILURE: %d wrong results"
                     % report["wrong_results"])
    return ExperimentResult(
        experiment="Resilience",
        title="SQL goodput under a seeded fault storm (recovery benchmark)",
        headers=headers,
        rows=table_rows,
        metrics=metrics,
        notes=notes,
    )
