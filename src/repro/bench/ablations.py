"""The ablations of DESIGN.md's "design choices worth ablating" and the
three extension experiments (KV store, scale-out, scale-up).

Each ``exp_*`` function is self-contained like those in
:mod:`repro.bench.experiments` and takes no arguments: every constant below
is the one the committed ``benchmarks/results/<name>.*`` files were made
with.
"""

from __future__ import annotations

from typing import Tuple

from repro.apps.kvstore import build_store
from repro.apps.sharded_search import (
    install_cluster_weblog,
    install_sharded_weblog,
    run_biscuit_sharded,
    run_conv_sharded,
    run_strategy,
)
from repro.bench.experiments import FIG8_QUERY1_PRED, _bandwidth, _run_fig8_query
from repro.bench.harness import ExperimentResult
from repro.core import SSD
from repro.db.executor import ExecutionMode
from repro.db.ndp import NDP_MODULE
from repro.db.planner import create_engine
from repro.db.sql import run_sql
from repro.db.tpch.datagen import load_tpch
from repro.db.tpch.queries import run_query
from repro.host.platform import System
from repro.net.cluster import ScaleOutCluster
from repro.sim.engine import Simulator
from repro.sim.units import GIB, MIB
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice
from repro.ssd.ftl import FTL
from repro.ssd.nand import NandArray

__all__ = [
    "exp_ablation_gc_overprovisioning",
    "exp_ablation_selectivity_threshold",
    "exp_ablation_channel_scaling",
    "exp_ablation_matcher_vs_software",
    "exp_ablation_join_order",
    "exp_ablation_aggregate_pushdown",
    "exp_ablation_read_cache",
    "exp_kvstore_metadata",
    "exp_scaleout_cluster",
    "exp_scaleup_multi_ssd",
]


# ------------------------------------------------- FTL GC vs over-provisioning
def _gc_workload(blocks_per_die: int, live_fraction: float, overwrites: int = 12) -> FTL:
    """Overwrite a working set sized to ``live_fraction`` of capacity."""
    sim = Simulator()
    config = SSDConfig(channels=1, dies_per_channel=1,
                       blocks_per_die=blocks_per_die, pages_per_block=4)
    nand = NandArray(sim, config)
    ftl = FTL(sim, config, nand)
    capacity = blocks_per_die * 4 * config.logical_pages_per_physical
    working_set = max(4, int(capacity * live_fraction))
    for _ in range(overwrites):
        sim.run(sim.process(ftl.write(list(range(working_set)))))
    return ftl


def exp_ablation_gc_overprovisioning() -> ExperimentResult:
    """Write amplification under a hot random-overwrite workload as a
    function of how much spare capacity the FTL keeps.  More spare blocks
    mean emptier GC victims, fewer relocations, lower WAF — the standard SSD
    trade-off the Biscuit runtime sits on top of ("the underlying SSD
    firmware takes care of media management", Section VI)."""
    rows = []
    metrics = {}
    for live in (0.45, 0.60, 0.75, 0.85):
        ftl = _gc_workload(blocks_per_die=16, live_fraction=live)
        rows.append([
            "%.0f%%" % (live * 100), round(ftl.write_amplification, 2),
            ftl.gc_runs, ftl.relocated_pages,
        ])
        metrics["waf_%d" % round(live * 100)] = ftl.write_amplification
    return ExperimentResult(
        "Ablation", "FTL write amplification vs live-capacity fraction",
        ["live data", "WAF", "GC runs", "relocated pages"],
        rows,
        metrics=metrics,
        notes=["hot random-overwrite workload; higher occupancy leaves GC "
               "fuller victims, so WAF climbs"],
    )


# --------------------------------------------- offload selectivity threshold
SELECTIVITY_SF = 0.01
SELECTIVITY_QUERIES = (6, 7, 14)  # year-range (accept), two-year-range (reject), month


def exp_ablation_selectivity_threshold() -> ExperimentResult:
    """Sweeping the planner's accept threshold changes which scans offload:
    too low and the planner rejects everything (all 1.0x); too high and
    unselective scans offload, wasting device refinement on most pages."""
    system = System()
    db = load_tpch(system.fs, SELECTIVITY_SF)
    conv = create_engine(system, db, ExecutionMode.CONV)
    conv_times = {}
    for number in SELECTIVITY_QUERIES:
        _, conv_times[number] = run_query(conv, number)
    rows = []
    metrics = {}
    system.run_fiber(SSD(system).load(NDP_MODULE))  # no row pays the load
    for threshold in (0.02, 0.25, 0.60):
        engine = create_engine(system, db, ExecutionMode.BISCUIT)
        engine.config.ndp_selectivity_threshold = threshold
        offloads = 0
        speedups = []
        for number in SELECTIVITY_QUERIES:
            _, elapsed = run_query(engine, number)
            offloads += 1 if engine.ndp_scans else 0
            speedups.append(conv_times[number] / elapsed)
        rows.append([threshold, offloads] + [round(s, 1) for s in speedups])
        metrics["offloads_%g" % threshold] = offloads
        for number, speedup in zip(SELECTIVITY_QUERIES, speedups):
            metrics["q%d_speedup_%g" % (number, threshold)] = speedup
    return ExperimentResult(
        "Ablation", "Offload selectivity threshold sweep (SF=%g)" % SELECTIVITY_SF,
        ["threshold", "#offloaded"] + ["Q%d speed-up" % q for q in SELECTIVITY_QUERIES],
        rows,
        metrics=metrics,
    )


# ------------------------------------------------------ channel-count scaling
def exp_ablation_channel_scaling() -> ExperimentResult:
    """The NDP advantage in Fig. 7 comes from internal bandwidth exceeding
    the host interface.  With few channels the internal path drops below
    the PCIe cap and the bandwidth advantage disappears."""
    rows = []
    metrics = {}
    for channels in (4, 8, 16, 32):
        config = SSDConfig(channels=channels)
        system = System(ssd_config=config)
        system.fs.install_synthetic("/bench/bw.dat", 256 * MIB)
        internal = _bandwidth(system, "/bench/bw.dat", 2 * MIB, 64 * MIB, 32, "biscuit")
        host = _bandwidth(system, "/bench/bw.dat", 2 * MIB, 64 * MIB, 32, "conv")
        rows.append([channels, round(internal, 2), round(host, 2),
                     round(internal / host, 2)])
        metrics["internal_%d" % channels] = internal
        metrics["host_%d" % channels] = host
    return ExperimentResult(
        "Ablation", "Internal vs host bandwidth across channel counts (GB/s)",
        ["channels", "internal", "host", "internal/host"],
        rows,
        metrics=metrics,
    )


# ------------------------------------------------ matcher IP vs software scan
MATCHER_SF = 0.02


def exp_ablation_matcher_vs_software() -> ExperimentResult:
    """Section VI: "we were unable to reproduce reported performance
    advantages of in-storage data scanning in software on a state-of-the-art
    SSD" — without the matcher IP, the two device cores (~240 MB/s combined)
    cannot keep up with the host, so software-only NDP *loses* on a
    scan-bound query."""
    system = System()
    db = load_tpch(system.fs, MATCHER_SF)
    conv = create_engine(system, db, ExecutionMode.CONV)
    _, conv_s = _run_fig8_query(conv, FIG8_QUERY1_PRED)

    system.run_fiber(SSD(system).load(NDP_MODULE))  # at DB-server startup
    hw = create_engine(system, db, ExecutionMode.BISCUIT)
    _, hw_s = _run_fig8_query(hw, FIG8_QUERY1_PRED)

    sw = create_engine(system, db, ExecutionMode.BISCUIT)
    sw.config.ndp_use_matcher = False
    _, sw_s = _run_fig8_query(sw, FIG8_QUERY1_PRED)

    return ExperimentResult(
        "Ablation", "Fig. 8 Query 1: matcher IP vs device software scan (SF=%g)" % MATCHER_SF,
        ["configuration", "exec (s)", "vs Conv"],
        [
            ["Conv (host scan)", round(conv_s, 3), 1.0],
            ["Biscuit + matcher IP", round(hw_s, 3), round(conv_s / hw_s, 1)],
            ["Biscuit, software scan", round(sw_s, 3), round(conv_s / sw_s, 2)],
        ],
        metrics={"conv_s": conv_s, "hw_s": hw_s, "sw_s": sw_s},
    )


# --------------------------------------------------- NDP-first join ordering
JOIN_ORDER_SF = 0.01


def exp_ablation_join_order() -> ExperimentResult:
    """The paper attributes Q14's 166.8x largely to placing the NDP-filtered
    table first in the join order (Section V-C's planner heuristic).  With
    the heuristic disabled (offload still on, original smallest-table-first
    order kept), the speed-up should collapse by an order of magnitude."""
    system = System()
    db = load_tpch(system.fs, JOIN_ORDER_SF)
    conv = create_engine(system, db, ExecutionMode.CONV)
    _, conv_s = run_query(conv, 14)

    with_order = create_engine(system, db, ExecutionMode.BISCUIT)
    _, with_s = run_query(with_order, 14)

    without_order = create_engine(system, db, ExecutionMode.BISCUIT)
    without_order.config.ndp_join_order = False
    _, without_s = run_query(without_order, 14)

    return ExperimentResult(
        "Ablation", "Q14 with and without NDP-first join ordering (SF=%g)" % JOIN_ORDER_SF,
        ["configuration", "exec (s)", "speed-up vs Conv"],
        [
            ["Conv", round(conv_s, 3), 1.0],
            ["Biscuit (NDP-first order)", round(with_s, 3), round(conv_s / with_s, 1)],
            ["Biscuit (order heuristic off)", round(without_s, 3),
             round(conv_s / without_s, 1)],
        ],
        metrics={
            "conv_s": conv_s, "with_order_s": with_s, "without_order_s": without_s,
            "speedup_with": conv_s / with_s, "speedup_without": conv_s / without_s,
        },
    )


# ------------------------------------------------------- aggregation pushdown
PUSHDOWN_SF = 0.02
PUSHDOWN_STATEMENT = """
    SELECT l_shipmode, COUNT(*) AS n, SUM(l_quantity) AS total_qty
    FROM lineitem
    WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31'
    GROUP BY l_shipmode ORDER BY l_shipmode
"""


def exp_ablation_aggregate_pushdown() -> ExperimentResult:
    """Three plans for the same grouped aggregation over a filtered year of
    lineitem: host everything (Conv), offloaded scan shipping surviving rows
    (the paper's design), and offloaded scan+aggregate shipping only
    aggregate states.  The interesting column is the bytes crossing the
    host interface."""
    system = System()
    db = load_tpch(system.fs, PUSHDOWN_SF)
    rows = []
    metrics = {}

    conv = create_engine(system, db, ExecutionMode.CONV)
    conv_rel, conv_s = run_sql(conv, PUSHDOWN_STATEMENT)
    rows.append(["Conv (host scan+aggregate)", round(conv_s, 3), 1.0,
                 conv.host_pages_read * db.fs.page_size])
    metrics["conv_s"] = conv_s

    system.run_fiber(SSD(system).load(NDP_MODULE))  # no plan pays the load
    row_ship = create_engine(system, db, ExecutionMode.BISCUIT)
    row_ship.config.ndp_pushdown_aggregate = False
    ship_rel, ship_s = run_sql(row_ship, PUSHDOWN_STATEMENT)
    rows.append(["Biscuit scan offload (ship rows)", round(ship_s, 3),
                 round(conv_s / ship_s, 1), row_ship.ndp_result_bytes])
    metrics["row_ship_s"] = ship_s
    metrics["row_ship_bytes"] = row_ship.ndp_result_bytes

    pushdown = create_engine(system, db, ExecutionMode.BISCUIT)
    push_rel, push_s = run_sql(pushdown, PUSHDOWN_STATEMENT)
    rows.append(["Biscuit scan+aggregate offload", round(push_s, 3),
                 round(conv_s / push_s, 1), pushdown.ndp_result_bytes])
    metrics["pushdown_s"] = push_s
    metrics["pushdown_bytes"] = pushdown.ndp_result_bytes

    if not conv_rel.rows == ship_rel.rows == push_rel.rows:
        raise AssertionError("the three aggregate plans returned different rows")
    return ExperimentResult(
        "Ablation", "Aggregate pushdown: grouped year scan (SF=%g)" % PUSHDOWN_SF,
        ["plan", "exec (s)", "speed-up", "result bytes over interface"],
        rows,
        metrics=metrics,
    )


# ------------------------------------------------------ device-DRAM read cache
CACHE_BYTES = 64 * 16384  # 1 MiB of the 1 GiB controller DRAM (Table I)
WORKING_SET_PAGES = 192  # logical pages: 48 lines, well inside the cache
CHASE_ROUNDS = 8
SCAN_PAGES = 4096  # a 16 MiB sweep


def _cache_device(cache_bytes: int) -> Tuple[Simulator, SSDDevice]:
    sim = Simulator()
    device = SSDDevice(sim, SSDConfig(read_cache_bytes=cache_bytes))
    return sim, device


def _cache_chase(cache_bytes: int) -> Tuple[float, SSDDevice]:
    sim, device = _cache_device(cache_bytes)
    # A fixed pseudo-random walk: each hop depends on the previous page, so
    # the reads serialize exactly like index traversal does.
    hops = []
    lpn = 0
    for _ in range(CHASE_ROUNDS * WORKING_SET_PAGES // 4):
        hops.append(lpn)
        lpn = (lpn * 29 + 13) % WORKING_SET_PAGES

    def chase():
        for hop in hops:
            yield from device.internal_read([hop])

    sim.run(sim.process(chase()))
    return sim.now_s, device


def _cache_scan(cache_bytes: int) -> Tuple[float, SSDDevice]:
    sim, device = _cache_device(cache_bytes)
    sim.run(sim.process(
        device.internal_read(list(range(SCAN_PAGES)), use_matcher=True)))
    return sim.now_s, device


def exp_ablation_read_cache() -> ExperimentResult:
    """Device-DRAM read cache, off vs on, under two workloads:

    * **pointer chase** — dependent single-page reads over a working set
      that fits in the cache (the Table IV access pattern).  Every revisit
      is a DRAM hit instead of tR + channel bus, so the chase must speed up
      at least 2x.
    * **streaming scan** — a matcher-engaged sweep (the Fig. 7/8 pattern).
      The scan auto-bypasses the cache, so its time must be identical with
      the cache on or off — turning the cache on cannot perturb the paper's
      calibrated scan numbers.
    """
    chase_off_s, _ = _cache_chase(0)
    chase_on_s, chase_device = _cache_chase(CACHE_BYTES)
    scan_off_s, _ = _cache_scan(0)
    scan_on_s, scan_device = _cache_scan(CACHE_BYTES)
    return ExperimentResult(
        "Ablation",
        "Device-DRAM read cache (%d KiB): pointer chase vs streaming scan"
        % (CACHE_BYTES // 1024),
        ["workload", "cache off (ms)", "cache on (ms)", "speedup"],
        [
            ["pointer chase", round(chase_off_s * 1e3, 3),
             round(chase_on_s * 1e3, 3),
             round(chase_off_s / chase_on_s, 2)],
            ["streaming scan (bypass)", round(scan_off_s * 1e3, 3),
             round(scan_on_s * 1e3, 3),
             round(scan_off_s / scan_on_s, 2)],
        ],
        metrics={
            "chase_off_s": chase_off_s,
            "chase_on_s": chase_on_s,
            "chase_speedup": chase_off_s / chase_on_s,
            "chase_hit_rate": chase_device.cache.stats.hit_rate,
            "scan_off_s": scan_off_s,
            "scan_on_s": scan_on_s,
            "scan_bypasses": float(scan_device.cache.stats.bypasses),
        },
    )


# ------------------------------------------------- extension: KV store (§VI)
KV_ITEMS = 4000
KV_LOOKUPS = 400


def exp_kvstore_metadata() -> ExperimentResult:
    """SkimpyStash metadata traversal on Biscuit (Section VI): batch KV
    lookups whose collision chains live on flash.  Every chain hop is a
    dependent read, so the device-side walker saves the host round trip per
    hop — the same latency argument as Table IV, on the workload the paper
    explicitly names as an NDP opportunity."""
    rows = []
    metrics = {}
    for buckets, label in ((1024, "short chains (~4)"), (128, "medium (~31)"),
                           (32, "long (~125)")):
        system = System()
        store = build_store(system, KV_ITEMS, buckets=buckets)
        keys = [b"key-%08d" % (i * (KV_ITEMS // KV_LOOKUPS)) for i in range(KV_LOOKUPS)]

        start = system.sim.now_s
        conv = system.run_fiber(store.get_conv(keys))
        conv_s = system.sim.now_s - start
        start = system.sim.now_s
        biscuit = system.run_fiber(store.get_biscuit(keys))
        biscuit_s = system.sim.now_s - start
        if conv != biscuit:
            raise AssertionError("Conv and Biscuit lookups returned different values")
        gain = (conv_s - biscuit_s) / conv_s * 100
        rows.append([label, round(conv_s * 1e3, 1), round(biscuit_s * 1e3, 1),
                     "%.0f%%" % gain])
        metrics["conv_ms_%d" % buckets] = conv_s * 1e3
        metrics["biscuit_ms_%d" % buckets] = biscuit_s * 1e3
    return ExperimentResult(
        "KV store", "%d lookups over %d records (ms)" % (KV_LOOKUPS, KV_ITEMS),
        ["chain length", "Conv (ms)", "Biscuit (ms)", "gain"],
        rows,
        metrics=metrics,
        notes=["per-hop gain matches Table IV's read-latency delta; longer "
               "chains amortize the per-batch port costs further"],
    )


# ------------------------------------- extension: scale-out (Fig. 1(c)/(d))
SCALEOUT_BYTES = 1 * GIB


def exp_scaleout_cluster() -> ExperimentResult:
    """Three tiers of near-data processing: a 4-node cluster (2 SSDs per
    node, 10 GbE links, 4-core storage servers) searches a sharded 1 GiB
    log.  Pulling raw data is network-bound; node-level compute is bound by
    the wimpy server CPUs; in-SSD NDP runs at aggregate flash speed."""
    cluster = ScaleOutCluster(num_nodes=4, ssds_per_node=2, node_cores=4)
    install_cluster_weblog(cluster, SCALEOUT_BYTES, "KEY")
    rows = []
    metrics = {}
    for strategy in ("pull", "node-compute", "in-ssd-ndp"):
        _, elapsed = run_strategy(cluster, strategy, "KEY")
        gbps = SCALEOUT_BYTES / elapsed / 1e9
        rows.append([strategy, round(elapsed, 3), round(gbps, 1)])
        metrics["%s_gbps" % strategy] = gbps
    return ExperimentResult(
        "Scale-out", "Sharded search across a 4-node cluster (1 GiB, 10 GbE)",
        ["strategy", "exec (s)", "aggregate GB/s"],
        rows,
        metrics=metrics,
        notes=["each tier moves compute closer to the data: client pull -> "
               "storage-node CPUs -> in-SSD matcher IPs"],
    )


# ---------------------------------------------- extension: scale-up (Fig. 1(b))
SHARD_BYTES = 192 * MIB
FABRIC_BYTES_PER_SEC = 3.2e9  # one switch uplink shared by all SSDs


def exp_scaleup_multi_ssd() -> ExperimentResult:
    """Sharded NDP search across 1-8 SSDs (Sections II-A and VI): with a
    software-defined file-per-SSD data layout, Biscuit's aggregate filtering
    throughput scales linearly with the number of devices, while the Conv
    path saturates at the shared PCIe fabric / host scan rate — "the gap can
    grow if there are many SSDs on a switched PCIe fabric"."""
    rows = []
    metrics = {}
    for num_ssds in (1, 2, 4, 8):
        system = System(num_ssds=num_ssds,
                        fabric_bytes_per_sec=FABRIC_BYTES_PER_SEC)
        total = SHARD_BYTES * num_ssds
        install_sharded_weblog(system, total, "KEY")
        _, conv_s = run_conv_sharded(system, "KEY")
        _, biscuit_s = run_biscuit_sharded(system, "KEY")
        conv_gbps = total / conv_s / 1e9
        biscuit_gbps = total / biscuit_s / 1e9
        rows.append([num_ssds, round(conv_gbps, 2), round(biscuit_gbps, 2),
                     round(conv_s / biscuit_s, 1)])
        metrics["conv_gbps_%d" % num_ssds] = conv_gbps
        metrics["biscuit_gbps_%d" % num_ssds] = biscuit_gbps
    return ExperimentResult(
        "Scale-up", "Sharded string-search throughput vs #SSDs "
        "(shared %.1f GB/s fabric)" % (FABRIC_BYTES_PER_SEC / 1e9),
        ["#SSDs", "Conv GB/s", "Biscuit GB/s", "speed-up"],
        rows,
        metrics=metrics,
    )
