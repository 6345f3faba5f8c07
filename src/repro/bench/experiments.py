"""The experiments: every table and figure of the paper's Section V.

Each ``exp_*`` function is self-contained (builds its own System), returns
an :class:`~repro.bench.harness.ExperimentResult`, and reports measured
values next to the paper's.  Absolute times for paper-scale workloads are
obtained by running a scaled workload and extrapolating linearly where the
workload is documented to scale linearly (noted per experiment).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Generator, List, Optional, Tuple

from repro.apps.pointer_chase import (
    PAPER_TOTAL_HOPS,
    build_analytic_graph,
    run_biscuit as chase_biscuit,
    run_conv as chase_conv,
)
from repro.apps.string_search import (
    PAPER_LOG_BYTES,
    install_weblog_analytic,
    run_biscuit_search,
    run_conv_search,
)
from repro.bench.harness import ExperimentResult
from repro.bench.probes import PROBE_IMAGE_PATH, PROBE_MODULE
from repro.core import SSD, Application, Packet, SSDLetProxy, write_module_image
from repro.db.executor import ExecutionMode
from repro.db.expr import and_, col, eq, or_
from repro.db.catalog import d
from repro.db.planner import create_engine
from repro.db.tpch.datagen import load_tpch
from repro.db.tpch.queries import ALL_QUERIES, run_query
from repro.host.platform import System
from repro.power.model import PowerMeter, PowerParams
from repro.sim.engine import all_of
from repro.sim.units import GIB, KIB, MIB
from repro.ssd.config import SSDConfig

__all__ = [
    "exp_table2_port_latency",
    "exp_table3_read_latency",
    "exp_fig7_read_bandwidth",
    "exp_table4_pointer_chasing",
    "exp_table5_string_search",
    "exp_fig8_db_filter_queries",
    "exp_fig9_power",
    "exp_table6_energy",
    "exp_fig10_tpch",
    "exp_serve_saturation",
]

PAPER = {
    "h2d_us": 301.6, "d2h_us": 130.1, "inter_ssdlet_us": 31.0, "inter_app_us": 10.7,
    "conv_read_us": 90.0, "biscuit_read_us": 75.9,
    "conv_bw_cap_gbps": 3.2, "internal_bw_gbps": 4.4,
    "chase_conv_s": [138.6, None, None, 154.9, 155.0],
    "chase_biscuit_s": [124.4, None, None, 123.9, 123.5],
    "search_conv_s": [12.2, 14.8, 16.3, 18.8, 19.9],
    "search_biscuit_s": [2.3, 2.3, 2.3, 2.3, 2.4],
    "fig8_speedups": [11.0, 10.0],
    "idle_w": 103.0, "conv_w": 122.0, "biscuit_w": 136.0,
    "conv_kj": 60.5, "biscuit_kj": 12.2,
    "q14_speedup": 166.8, "q14_io_reduction": 315.4,
    "geomean_8": 6.1, "top5_mean": 15.4, "suite_speedup": 3.6,
}


# ------------------------------------------------------------------ Table II
def exp_table2_port_latency(samples: int = 24) -> ExperimentResult:
    """One-way Packet latency for each port type (paper Table II)."""
    system = System()
    ssd = SSD(system)
    write_module_image(system.fs, PROBE_IMAGE_PATH, PROBE_MODULE)

    def pair_latency(same_app: bool) -> float:
        def program() -> Generator:
            mid = yield from ssd.loadModule(PROBE_IMAGE_PATH)
            app1 = Application(ssd)
            source = SSDLetProxy(app1, mid, "idSource", (samples, 8))
            app2 = app1 if same_app else Application(ssd)
            sink = SSDLetProxy(app2, mid, "idSink")
            app1.connect(source.out(0), sink.in_(0))
            yield from app1.start()
            if app2 is not app1:
                yield from app2.start()
            yield from app1.wait()
            if app2 is not app1:
                yield from app2.wait()
            lat = [
                (t - s) / 1e3
                for s, t in zip(source.instance.sent, sink.instance.times)
            ]
            return sum(lat[4:]) / len(lat[4:])

        return system.run_fiber(program())

    def d2h_latency() -> float:
        def program() -> Generator:
            mid = yield from ssd.loadModule(PROBE_IMAGE_PATH)
            app = Application(ssd)
            source = SSDLetProxy(app, mid, "idSource", (samples, 8))
            port = app.connectTo(source.out(0), Packet)
            yield from app.start()
            received = []
            while True:
                value = yield from port.get_opt()
                if value is None:
                    break
                received.append(system.sim.now)
            yield from app.wait()
            lat = [(t - s) / 1e3 for s, t in zip(source.instance.sent, received)]
            return sum(lat[4:]) / len(lat[4:])

        return system.run_fiber(program())

    def h2d_latency() -> float:
        def program() -> Generator:
            mid = yield from ssd.loadModule(PROBE_IMAGE_PATH)
            app = Application(ssd)
            sink = SSDLetProxy(app, mid, "idSink")
            port = app.connectFrom(Packet, sink.in_(0))
            yield from app.start()
            sent = []
            for _ in range(samples):
                sent.append(system.sim.now)
                yield from port.put(Packet(b"\xA5" * 8))
                yield system.sim.timeout(1_000_000)
            port.close()
            yield from app.wait()
            lat = [(t - s) / 1e3 for s, t in zip(sent, sink.instance.times)]
            return sum(lat[4:]) / len(lat[4:])

        return system.run_fiber(program())

    inter_ssdlet = pair_latency(True)
    inter_app = pair_latency(False)
    d2h = d2h_latency()
    h2d = h2d_latency()
    return ExperimentResult(
        "Table II", "Measured latency for different I/O port types (us)",
        ["port type", "paper", "measured"],
        [
            ["host-to-device (H2D)", PAPER["h2d_us"], round(h2d, 1)],
            ["host-to-device (D2H)", PAPER["d2h_us"], round(d2h, 1)],
            ["inter-SSDlet", PAPER["inter_ssdlet_us"], round(inter_ssdlet, 1)],
            ["inter-application", PAPER["inter_app_us"], round(inter_app, 1)],
        ],
        metrics={
            "h2d_us": h2d, "d2h_us": d2h,
            "inter_ssdlet_us": inter_ssdlet, "inter_app_us": inter_app,
        },
    )


# ----------------------------------------------------------------- Table III
def exp_table3_read_latency(samples: int = 32, sim=None,
                            ssd_config=None) -> ExperimentResult:
    """4 KiB read latency, Conv (pread) vs Biscuit (internal read).

    ``sim``/``ssd_config`` let the trace-determinism matrix run the same
    experiment with an event bus attached and/or the fast path disabled.
    """
    system = System(ssd_config=ssd_config, sim=sim)
    system.fs.install_synthetic("/bench/latency.dat", 64 * MIB)
    conv_handle = system.open_host("/bench/latency.dat")
    internal_handle = system.open_internal("/bench/latency.dat")

    def measure(handle) -> float:
        def program() -> Generator:
            times = []
            for index in range(samples):
                start = system.sim.now
                yield from handle.read_timing_only(index * 4096, 4096)
                times.append((system.sim.now - start) / 1e3)
            return sum(times) / len(times)

        return system.run_fiber(program())

    conv = measure(conv_handle)
    biscuit = measure(internal_handle)
    return ExperimentResult(
        "Table III", "Measured data read latency (4 KiB, us)",
        ["config", "paper", "measured"],
        [
            ["Conv", PAPER["conv_read_us"], round(conv, 1)],
            ["Biscuit", PAPER["biscuit_read_us"], round(biscuit, 1)],
        ],
        metrics={"conv_read_us": conv, "biscuit_read_us": biscuit},
    )


# -------------------------------------------------------------------- Fig. 7
def _bandwidth(system: System, path: str, request_bytes: int, total_bytes: int,
               queue_depth: int, mode: str) -> float:
    """GB/s of reads at the given request size and queue depth."""
    handle = (system.open_host(path) if mode == "conv"
              else system.open_internal(path, use_matcher=(mode == "matcher")))
    requests = max(queue_depth, total_bytes // request_bytes)
    start = system.sim.now

    def worker(worker_id: int) -> Generator:
        for request in range(worker_id, requests, queue_depth):
            offset = (request * request_bytes) % (handle.size - request_bytes)
            yield from handle.read_timing_only(offset, request_bytes)

    def program() -> Generator:
        fibers = [
            system.sim.process(worker(i), name="bw%d" % i)
            for i in range(queue_depth)
        ]
        yield all_of(system.sim, fibers)

    system.run_fiber(program())
    elapsed_s = (system.sim.now - start) / 1e9
    return requests * request_bytes / elapsed_s / 1e9


def exp_fig7_read_bandwidth(
    sizes: Optional[List[int]] = None, sweep_bytes: int = 256 * MIB,
    sim=None, ssd_config=None,
) -> ExperimentResult:
    """Sync and async read bandwidth vs request size (paper Fig. 7).

    ``sim``/``ssd_config`` let the trace-determinism matrix run the same
    sweep with an event bus attached and/or the fast path disabled.
    """
    sizes = sizes or [4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB]
    system = System(ssd_config=ssd_config, sim=sim)
    system.fs.install_synthetic("/bench/bw.dat", 512 * MIB)
    rows = []
    metrics: Dict[str, float] = {}
    for size in sizes:
        total = min(sweep_bytes, max(size * 8, 32 * MIB))
        sync_conv = _bandwidth(system, "/bench/bw.dat", size, total, 1, "conv")
        sync_bisc = _bandwidth(system, "/bench/bw.dat", size, total, 1, "biscuit")
        async_conv = _bandwidth(system, "/bench/bw.dat", size, total, 32, "conv")
        async_bisc = _bandwidth(system, "/bench/bw.dat", size, total, 32, "biscuit")
        async_match = _bandwidth(system, "/bench/bw.dat", size, total, 32, "matcher")
        label = "%dKiB" % (size // KIB) if size < MIB else "%dMiB" % (size // MIB)
        rows.append([label, round(sync_conv, 2), round(sync_bisc, 2),
                     round(async_conv, 2), round(async_bisc, 2), round(async_match, 2)])
        metrics["async_conv_%d" % size] = async_conv
        metrics["async_biscuit_%d" % size] = async_bisc
        metrics["async_matcher_%d" % size] = async_match
    result = ExperimentResult(
        "Fig. 7", "Read bandwidth vs request size (GB/s)",
        ["request", "sync Conv", "sync Biscuit", "async Conv", "async Biscuit",
         "async Biscuit+matcher"],
        rows,
        metrics=metrics,
        notes=[
            "paper: Conv caps at ~3.2 GB/s (PCIe Gen3 x4); Biscuit internal "
            "~4.4 GB/s (>30%% higher); matcher-enabled in between",
        ],
    )
    return result


# ----------------------------------------------------------------- Table IV
def exp_table4_pointer_chasing(
    loads: Tuple[int, ...] = (0, 6, 12, 18, 24),
    walks: int = 4,
    hops_per_walk: int = 1500,
) -> ExperimentResult:
    """Pointer-chasing execution time vs background load (paper Table IV).

    Paper scale: 100 walks over a 42 M-node graph, ~1.475 M dependent reads
    total.  We simulate a smaller hop count (per-hop cost is constant — the
    walk is a linear chain of dependent reads) and report both the measured
    per-hop latency and the extrapolated paper-scale seconds.
    """
    rows = []
    metrics: Dict[str, float] = {}
    simulated_hops = walks * hops_per_walk
    for index, load in enumerate(loads):
        system = System(background_threads=load)
        graph = build_analytic_graph(system, "/bench/graph.bin", 42_000_000)
        _, conv_s = chase_conv(system, graph, walks, hops_per_walk)
        _, biscuit_s = chase_biscuit(system, graph, walks, hops_per_walk)
        conv_paper = conv_s / simulated_hops * PAPER_TOTAL_HOPS
        biscuit_paper = biscuit_s / simulated_hops * PAPER_TOTAL_HOPS
        paper_conv = PAPER["chase_conv_s"][index]
        paper_bisc = PAPER["chase_biscuit_s"][index]
        rows.append([
            load,
            paper_conv if paper_conv is not None else "-",
            round(conv_paper, 1),
            paper_bisc if paper_bisc is not None else "-",
            round(biscuit_paper, 1),
        ])
        metrics["conv_s_%d" % load] = conv_paper
        metrics["biscuit_s_%d" % load] = biscuit_paper
    return ExperimentResult(
        "Table IV", "Pointer chasing execution time (s, paper scale)",
        ["#threads", "Conv paper", "Conv measured", "Biscuit paper", "Biscuit measured"],
        rows,
        metrics=metrics,
        notes=["measured %d hops per config, extrapolated linearly to the "
               "paper's ~1.475M dependent reads" % simulated_hops],
    )


# ------------------------------------------------------------------ Table V
def exp_table5_string_search(
    loads: Tuple[int, ...] = (0, 6, 12, 18, 24),
    simulated_bytes: int = 512 * MIB,
) -> ExperimentResult:
    """String search vs background load (paper Table V).

    Simulates a 512 MiB slice of the 7.8 GiB web log (scan time is linear in
    size) and reports paper-scale seconds.
    """
    scale = PAPER_LOG_BYTES / simulated_bytes
    system = System()
    install_weblog_analytic(system, "/bench/web.log", simulated_bytes, "ERRORKEY", 0.02)
    rows = []
    metrics: Dict[str, float] = {}
    for index, load in enumerate(loads):
        system.set_background_load(load)
        _, conv_s = run_conv_search(system, "/bench/web.log", "ERRORKEY")
        _, biscuit_s = run_biscuit_search(system, "/bench/web.log", "ERRORKEY")
        conv_paper = conv_s * scale
        biscuit_paper = biscuit_s * scale
        rows.append([
            load, PAPER["search_conv_s"][index], round(conv_paper, 1),
            PAPER["search_biscuit_s"][index], round(biscuit_paper, 1),
            round(conv_paper / biscuit_paper, 1),
        ])
        metrics["conv_s_%d" % load] = conv_paper
        metrics["biscuit_s_%d" % load] = biscuit_paper
    system.set_background_load(0)
    return ExperimentResult(
        "Table V", "String-search execution time (s, paper scale: 7.8 GiB log)",
        ["#threads", "Conv paper", "Conv measured", "Biscuit paper",
         "Biscuit measured", "speed-up"],
        rows,
        metrics=metrics,
    )


# ------------------------------------------------------------------- Fig. 8
FIG8_QUERY1_PRED = eq(col("l_shipdate"), d("1995-01-17"))
FIG8_QUERY2_PRED = and_(
    or_(eq(col("l_shipdate"), d("1995-01-17")), eq(col("l_shipdate"), d("1995-01-18"))),
    or_(eq(col("l_linenumber"), 1), eq(col("l_linenumber"), 2)),
)
FIG8_COLS = ["l_orderkey", "l_shipdate", "l_linenumber"]


def _run_fig8_query(engine, pred) -> Tuple[int, float]:
    engine.begin_query()
    system = engine.system
    start = system.sim.now_s

    def program() -> Generator:
        rel = yield from engine.fetch(engine.t("lineitem", pred, FIG8_COLS))
        return rel

    rel = system.run_fiber(program())
    return len(rel), system.sim.now_s - start


def exp_fig8_db_filter_queries(scale_factor: float = 0.05) -> ExperimentResult:
    """The two lineitem filter queries of Fig. 8 (selectivity 0.02 / 0.04)."""
    system = System()
    db = load_tpch(system.fs, scale_factor)
    conv = create_engine(system, db, ExecutionMode.CONV)
    biscuit = create_engine(system, db, ExecutionMode.BISCUIT)
    # The NDP module is deployed/loaded at DB-server startup, not per query.
    system.run_fiber(biscuit.ndp_context._ensure_module())
    rows = []
    metrics: Dict[str, float] = {}
    for name, pred, paper_speedup in (
        ("Query 1", FIG8_QUERY1_PRED, PAPER["fig8_speedups"][0]),
        ("Query 2", FIG8_QUERY2_PRED, PAPER["fig8_speedups"][1]),
    ):
        count_c, conv_s = _run_fig8_query(conv, pred)
        count_b, biscuit_s = _run_fig8_query(biscuit, pred)
        assert count_c == count_b
        speedup = conv_s / biscuit_s
        rows.append([name, round(conv_s, 3), round(biscuit_s, 3),
                     paper_speedup, round(speedup, 1)])
        metrics["%s_speedup" % name.replace(" ", "").lower()] = speedup
    return ExperimentResult(
        "Fig. 8", "SQL filter queries on lineitem (SF=%g)" % scale_factor,
        ["query", "Conv (s)", "Biscuit (s)", "paper speed-up", "measured speed-up"],
        rows,
        metrics=metrics,
        notes=["absolute seconds are at simulation scale; speed-ups are "
               "scale-free (paper ran SF 100)"],
    )


# ------------------------------------------------- Fig. 9 / Table VI (power)
def _query1_power_run(mode: ExecutionMode, scale_factor: float):
    """Run Fig. 8 Query 1 with a power meter; returns (exec_s, meter, sys)."""
    system = System()
    db = load_tpch(system.fs, scale_factor)
    engine = create_engine(system, db, mode)
    meter = PowerMeter(system, interval_s=0.002)
    meter.start()
    engine.begin_query()
    start = system.sim.now_s

    def program() -> Generator:
        rel = yield from engine.fetch(engine.t("lineitem", FIG8_QUERY1_PRED, FIG8_COLS))
        return rel

    system.run_fiber(program())
    exec_s = system.sim.now_s - start
    # Post-query buffer-cache synchronization (the paper includes this tail
    # in the energy accounting — footnote 2).  Modeled as light host work of
    # a fixed duration, scaled with the dataset.
    sync_s = 0.03 * (scale_factor / 0.05)

    def sync_program() -> Generator:
        end = system.sim.now + int(sync_s * 1e9)
        while system.sim.now < end:
            yield from system.cpu.occupy(200.0, memory_bound=False)
            yield system.sim.timeout(1_800_000)

    system.run_fiber(sync_program())
    meter.stop()
    return exec_s, sync_s, meter, system


def exp_fig9_power(scale_factor: float = 0.05) -> ExperimentResult:
    """System power during Query 1 (paper Fig. 9) + energy (Table VI)."""
    conv_exec, conv_sync, conv_meter, _ = _query1_power_run(
        ExecutionMode.CONV, scale_factor)
    bisc_exec, bisc_sync, bisc_meter, _ = _query1_power_run(
        ExecutionMode.BISCUIT, scale_factor)
    conv_avg = conv_meter.average_w(0.0, conv_exec)
    bisc_avg = bisc_meter.average_w(0.0, bisc_exec)
    conv_kj = conv_meter.energy_kj()
    bisc_kj = bisc_meter.energy_kj()
    scale = 100.0 / scale_factor  # paper ran SF 100; energy scales with time
    rows = [
        ["idle", PAPER["idle_w"], PowerParams().idle_w],
        ["Conv avg during query", PAPER["conv_w"], round(conv_avg, 1)],
        ["Biscuit avg during query", PAPER["biscuit_w"], round(bisc_avg, 1)],
    ]
    energy_rows = [
        ["Conv", PAPER["conv_kj"], round(conv_kj * scale, 1)],
        ["Biscuit", PAPER["biscuit_kj"], round(bisc_kj * scale, 1)],
    ]
    return ExperimentResult(
        "Fig. 9 / Table VI", "Power during Query 1 (W) and total energy (kJ)",
        ["quantity", "paper", "measured"],
        rows + [["-- energy (kJ, scaled to SF100) --", "", ""]] + energy_rows,
        metrics={
            "conv_avg_w": conv_avg, "biscuit_avg_w": bisc_avg,
            "conv_kj": conv_kj * scale, "biscuit_kj": bisc_kj * scale,
            "energy_ratio": conv_kj / bisc_kj,
            "conv_exec_s": conv_exec, "biscuit_exec_s": bisc_exec,
        },
        notes=[
            "power series sampled every 2 ms of simulated time",
            "energy includes the post-query buffer-sync tail (paper footnote 2)",
        ],
        power_series={"conv": conv_meter.series, "biscuit": bisc_meter.series},
    )


def exp_table6_energy(scale_factor: float = 0.05) -> ExperimentResult:
    """Table VI is the energy integral of the Fig. 9 runs (the curves are
    Fig. 9's to save)."""
    return replace(exp_fig9_power(scale_factor), experiment="Table VI",
                   title="Overall energy consumption for Query 1",
                   power_series={})


# ------------------------------------------------------------------ Fig. 10
def exp_fig10_tpch(scale_factor: float = 0.01) -> ExperimentResult:
    """All 22 TPC-H queries: speed-up and I/O-reduction ratio (Fig. 10)."""
    system = System()
    db = load_tpch(system.fs, scale_factor)
    conv = create_engine(system, db, ExecutionMode.CONV)
    biscuit = create_engine(system, db, ExecutionMode.BISCUIT)
    rows = []
    metrics: Dict[str, float] = {}
    total_conv = total_biscuit = 0.0
    offloaded: List[Tuple[int, float]] = []
    for number in sorted(ALL_QUERIES):
        _, conv_s = run_query(conv, number)
        conv_pages = conv.host_pages_read
        _, biscuit_s = run_query(biscuit, number)
        speedup = conv_s / biscuit_s
        io_reduction = conv_pages / max(1.0, biscuit.biscuit_pages_equivalent)
        used_ndp = biscuit.ndp_scans > 0
        total_conv += conv_s
        total_biscuit += biscuit_s
        if used_ndp:
            offloaded.append((number, speedup))
        rows.append([
            "Q%d" % number, round(conv_s, 3), round(biscuit_s, 3),
            round(speedup, 1), round(io_reduction, 1),
            "yes" if used_ndp else "no",
        ])
        metrics["q%d_speedup" % number] = speedup
        metrics["q%d_io_reduction" % number] = io_reduction
    rows.sort(key=lambda row: -row[3])
    geomean = math.exp(
        sum(math.log(s) for _, s in offloaded) / len(offloaded)
    ) if offloaded else 0.0
    top5 = sorted((s for _, s in offloaded), reverse=True)[:5]
    metrics.update({
        "num_offloaded": len(offloaded),
        "geomean_offloaded": geomean,
        "top5_mean": sum(top5) / len(top5) if top5 else 0.0,
        "suite_speedup": total_conv / total_biscuit,
        "total_conv_s": total_conv,
        "total_biscuit_s": total_biscuit,
    })
    return ExperimentResult(
        "Fig. 10", "TPC-H relative performance, sorted by speed-up (SF=%g)" % scale_factor,
        ["query", "Conv (s)", "Biscuit (s)", "speed-up", "I/O reduction", "NDP"],
        rows,
        metrics=metrics,
        notes=[
            "paper: 8 queries offloaded, geomean 6.1x, top-5 mean 15.4x, "
            "Q14 166.8x with 315.4x I/O reduction, suite total 3.6x",
            "measured: %d offloaded, geomean %.1fx, top-5 mean %.1fx, suite %.2fx"
            % (len(offloaded), geomean, metrics["top5_mean"], metrics["suite_speedup"]),
        ],
    )


# ----------------------------------------------------- serving saturation
def exp_serve_saturation(
    policies: Tuple[str, ...] = ("fifo", "wfq"),
    load_scales: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0),
) -> ExperimentResult:
    """Serving-layer saturation sweep: offered load vs latency and loss.

    Sweeps the open-loop ``saturation`` mix through the latency knee for
    each scheduling policy, then runs the ``fairness`` mix (heavy tenant
    far past device capacity, light closed-loop tenant beside it) against
    the light tenant's isolated baseline — the Section V isolation story
    for a shared device.
    """
    from repro.serve.mixes import run_mix

    rows = []
    metrics: Dict[str, float] = {}
    for policy in policies:
        for load_scale in load_scales:
            result = run_mix("saturation", policy=policy,
                             load_scale=load_scale)
            registry = result.system.metrics
            total = registry.histogram("serve.tenant.ana.total_us")
            completed = registry.counter("serve.tenant.ana.completed").value
            lost = (registry.counter("serve.tenant.ana.rejected").value
                    + registry.counter("serve.tenant.ana.timeouts").value)
            goodput = registry.gauge("serve.tenant.ana.goodput_jps").value
            p50_us = total.quantile(0.50) if total.count else 0.0
            p99_us = total.quantile(0.99) if total.count else 0.0
            rows.append([
                policy, load_scale, result.loadgen.jobs_offered, completed,
                lost, round(p50_us, 1), round(p99_us, 1),
                round(goodput or 0.0, 1),
            ])
            key = "%s_load%g" % (policy, load_scale)
            metrics["%s_p99_us" % key] = p99_us
            metrics["%s_lost" % key] = float(lost)
            metrics["%s_goodput_jps" % key] = goodput or 0.0

    # Fairness: light tenant's p99 beside a saturating heavy tenant.
    isolated = run_mix("fairness_light_only")
    isolated_p99_us = isolated.system.metrics.histogram(
        "serve.tenant.light.total_us").quantile(0.99)
    metrics["light_p99_isolated_us"] = isolated_p99_us
    for policy in policies:
        shared = run_mix("fairness", policy=policy)
        light_p99_us = shared.system.metrics.histogram(
            "serve.tenant.light.total_us").quantile(0.99)
        metrics["light_p99_%s_us" % policy] = light_p99_us
        metrics["light_%s_vs_isolated" % policy] = (
            light_p99_us / isolated_p99_us if isolated_p99_us else 0.0)
        rows.append([
            "%s+heavy" % policy, "-", "-", "-", "-", "-",
            round(light_p99_us, 1), "-",
        ])
    rows.append(["isolated", "-", "-", "-", "-", "-",
                 round(isolated_p99_us, 1), "-"])

    notes = [
        "p99 grows monotonically past the knee; losses appear once offered "
        "load exceeds device capacity",
        "fairness: light tenant p99 %.0f us isolated, %.0f us under WFQ "
        "(%.2fx), %.0f us under FIFO (%.2fx)"
        % (isolated_p99_us,
           metrics.get("light_p99_wfq_us", 0.0),
           metrics.get("light_wfq_vs_isolated", 0.0),
           metrics.get("light_p99_fifo_us", 0.0),
           metrics.get("light_fifo_vs_isolated", 0.0)),
    ]
    return ExperimentResult(
        "Serving", "Multi-tenant serving: saturation sweep + fairness",
        ["policy", "load", "offered", "completed", "lost", "p50 (us)",
         "p99 (us)", "goodput (j/s)"],
        rows,
        metrics=metrics,
        notes=notes,
    )
