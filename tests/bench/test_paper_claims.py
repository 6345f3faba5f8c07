"""Every claim the reproduction makes against the paper, checked in tier-1.

``python -m repro.bench`` writes each experiment's metrics to
``benchmarks/results/<name>.metrics.json`` (and Fig. 9's curves to two
series CSVs); ``make results-check`` proves a fresh run rewrites those files
byte for byte.  This file reads the committed copies and asserts the
paper's inequalities — one case per experiment, no simulation re-run.
(``resilience``, ``cluster`` and ``sim_throughput`` make no paper claim;
their cases hold the reproduction's own floors.)
"""

import json
import os

import pytest

from repro.bench.__main__ import save_name
from repro.bench.ablations import FABRIC_BYTES_PER_SEC
from repro.bench.experiments import PAPER
from repro.db.tpch.queries import OFFLOADED_QUERIES
from repro.sim.units import KIB, MIB

RESULTS = os.path.join(os.path.dirname(__file__), "..", "..",
                       "benchmarks", "results")

#: The serving sweep's offered-load scales (``exp_serve_saturation``'s default).
LOADS = (0.5, 1.0, 2.0, 4.0, 8.0)

#: claim name -> (experiment whose committed metrics it reads, check).
CLAIMS = {}


def claim(name, reads=None):
    """Register ``check`` as claim ``name`` over the metrics of experiment
    ``reads`` (default: the experiment of the same name)."""
    def register(check):
        CLAIMS[name] = (reads or name, check)
        return check

    return register


def power_series(label):
    """Fig. 9's (time_s, watts) samples for ``label`` as committed."""
    path = os.path.join(RESULTS, "fig9_power_%s_series.csv" % label)
    with open(path) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "time_s,watts"
    return [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]


# ------------------------------------------------------------ the paper (§V)
@claim("table2")
def table2_port_latency(metrics):
    assert abs(metrics["inter_ssdlet_us"] - PAPER["inter_ssdlet_us"]) < 1.0
    assert abs(metrics["inter_app_us"] - PAPER["inter_app_us"]) < 1.0
    assert abs(metrics["d2h_us"] - PAPER["d2h_us"]) < 3.0
    assert abs(metrics["h2d_us"] - PAPER["h2d_us"]) < 3.0
    # The paper's ordering: inter-app < inter-SSDlet < D2H < H2D.
    assert (metrics["inter_app_us"] < metrics["inter_ssdlet_us"]
            < metrics["d2h_us"] < metrics["h2d_us"])


@claim("table3")
def table3_read_latency(metrics):
    conv = metrics["conv_read_us"]
    biscuit = metrics["biscuit_read_us"]
    assert abs(conv - PAPER["conv_read_us"]) < 2.0
    assert abs(biscuit - PAPER["biscuit_read_us"]) < 2.0
    # ~18% shorter latency for the internal read (the paper's headline).
    assert 0.12 < (conv - biscuit) / conv < 0.25


@claim("fig7")
def fig7_read_bandwidth(m):
    big = 4 * MIB
    # Conv is capped by PCIe Gen3 x4.
    assert 2.9 < m["async_conv_%d" % big] < 3.3
    # Internal bandwidth exceeds the host cap by >25%.
    assert m["async_biscuit_%d" % big] > 1.25 * m["async_conv_%d" % big]
    assert 4.0 < m["async_biscuit_%d" % big] < 4.8
    # Matcher-enabled sits between Conv and raw internal.
    assert (m["async_conv_%d" % big] < m["async_matcher_%d" % big]
            < m["async_biscuit_%d" % big])
    # Async saturates early: 256 KiB async is already near the cap...
    assert m["async_biscuit_%d" % (256 * KIB)] > 0.95 * m["async_biscuit_%d" % big]


@claim("table4")
def table4_pointer_chasing(m):
    # Unloaded: within a few percent of the paper.
    assert abs(m["conv_s_0"] - PAPER["chase_conv_s"][0]) / PAPER["chase_conv_s"][0] < 0.05
    assert abs(m["biscuit_s_0"] - PAPER["chase_biscuit_s"][0]) / PAPER["chase_biscuit_s"][0] < 0.05
    # Conv degrades monotonically with load; Biscuit is insensitive.
    assert m["conv_s_24"] > m["conv_s_12"] > m["conv_s_0"]
    assert abs(m["biscuit_s_24"] - m["biscuit_s_0"]) / m["biscuit_s_0"] < 0.02
    # At least the paper's ~11% gain at full load.
    assert m["conv_s_24"] / m["biscuit_s_24"] > 1.11


@claim("table5")
def table5_string_search(m):
    # Within ~10% of the paper's absolute times at every load level.
    for i, load in enumerate((0, 6, 12, 18, 24)):
        assert abs(m["conv_s_%d" % load] - PAPER["search_conv_s"][i]) < 1.5
        assert abs(m["biscuit_s_%d" % load] - PAPER["search_biscuit_s"][i]) < 0.5
    # Speed-up grows with load: >5x unloaded, >8x at 24 threads.
    assert m["conv_s_0"] / m["biscuit_s_0"] > 5.0
    assert m["conv_s_24"] / m["biscuit_s_24"] > 8.0


@claim("fig8")
def fig8_db_filter_queries(metrics):
    q1 = metrics["query1_speedup"]
    q2 = metrics["query2_speedup"]
    # Paper: ~11x and ~10x.  Band: both large, same order of magnitude.
    assert 7.0 < q1 < 18.0
    assert 7.0 < q2 < 18.0


@claim("fig9")
def fig9_power(m):
    # Average power during execution matches the paper within a few watts.
    assert abs(m["conv_avg_w"] - PAPER["conv_w"]) < 5.0
    assert abs(m["biscuit_avg_w"] - PAPER["biscuit_w"]) < 5.0
    # Biscuit draws more power (busy SSD) but for far less time.
    assert m["biscuit_avg_w"] > m["conv_avg_w"]
    assert m["conv_exec_s"] > 5 * m["biscuit_exec_s"]
    # The series actually rises above idle during execution.
    peak_conv = max(w for _, w in power_series("conv"))
    peak_bisc = max(w for _, w in power_series("biscuit"))
    assert peak_conv > PAPER["idle_w"] + 10
    assert peak_bisc > PAPER["idle_w"] + 20


@claim("table6", reads="fig9")
def table6_energy(m):
    # Table VI is the energy integral of Fig. 9's runs, so it reads Fig. 9's
    # metrics.  Paper: 60.5 kJ vs 12.2 kJ — roughly a 5x energy saving.
    assert abs(m["conv_kj"] - PAPER["conv_kj"]) / PAPER["conv_kj"] < 0.25
    assert abs(m["biscuit_kj"] - PAPER["biscuit_kj"]) / PAPER["biscuit_kj"] < 0.25
    assert 3.5 < m["energy_ratio"] < 7.0


@claim("fig10")
def fig10_tpch(m):
    # Eight queries leverage NDP, as in the paper.
    assert m["num_offloaded"] == len(OFFLOADED_QUERIES) == 8
    # Q14 is the headline: two orders of magnitude, driven by I/O reduction.
    assert m["q14_speedup"] > 80.0
    assert m["q14_io_reduction"] > 100.0
    # Non-offloaded queries sit at ~1.0x.
    for number in (1, 2, 3, 7, 8, 9, 11, 13, 16, 17, 18, 19, 21, 22):
        assert 0.85 < m["q%d_speedup" % number] < 1.15, number
    # Aggregates: geomean of the offloaded 8 (paper 6.1x), suite total
    # (paper 3.6x).
    assert 3.0 < m["geomean_offloaded"] < 12.0
    assert 2.5 < m["suite_speedup"] < 6.0


# --------------------------------------------------------------- extensions
@claim("serve")
def serve_saturation(m):
    for policy in ("fifo", "wfq"):
        p99s = [m["%s_load%g_p99_us" % (policy, load)] for load in LOADS]
        # p99 is monotone non-decreasing past the knee (the last three
        # sweep points straddle capacity) and the knee is real: the
        # overloaded point is far above the unloaded one.
        assert p99s[2] <= p99s[3] <= p99s[4], p99s
        assert p99s[4] > 2.0 * p99s[0], p99s
        # Overload sheds load: nonzero rejections/timeouts at the top.
        assert m["%s_load8_lost" % policy] > 0
        # Goodput saturates rather than collapsing.
        assert m["%s_load8_goodput_jps" % policy] >= \
            0.9 * m["%s_load4_goodput_jps" % policy]

    # WFQ isolation: beside a saturating heavy tenant, the light tenant's
    # p99 stays within 2x of its isolated-run p99; FIFO does not manage it.
    assert m["light_wfq_vs_isolated"] < 2.0
    assert m["light_fifo_vs_isolated"] > m["light_wfq_vs_isolated"]


@claim("kvstore")
def kvstore_metadata(m):
    for buckets in (1024, 128, 32):
        assert m["biscuit_ms_%d" % buckets] < m["conv_ms_%d" % buckets]
    # Longer chains amortize port setup: the relative gain grows.
    gain_short = 1 - m["biscuit_ms_1024"] / m["conv_ms_1024"]
    gain_long = 1 - m["biscuit_ms_32"] / m["conv_ms_32"]
    assert gain_long > gain_short


@claim("scaleup")
def scaleup_multi_ssd(m):
    # Biscuit filtering scales with devices (within 25% of linear at x8).
    assert m["biscuit_gbps_8"] > 6.0 * m["biscuit_gbps_1"]
    # Conv saturates at the shared fabric uplink.
    assert m["conv_gbps_8"] <= FABRIC_BYTES_PER_SEC / 1e9 * 1.05
    # The NDP advantage widens with scale.
    gain_1 = m["biscuit_gbps_1"] / m["conv_gbps_1"]
    gain_8 = m["biscuit_gbps_8"] / m["conv_gbps_8"]
    assert gain_8 > 1.5 * gain_1


@claim("scaleout")
def scaleout_cluster(m):
    # Pull is bounded by the four 10 GbE links (4 x 1.25 GB/s).
    assert m["pull_gbps"] <= 5.0 * 1.05
    # Node compute beats pulling; in-SSD NDP beats node compute.
    assert m["node-compute_gbps"] > 1.5 * m["pull_gbps"]
    assert m["in-ssd-ndp_gbps"] > 1.8 * m["node-compute_gbps"]


# ---------------------------------------------------------------- ablations
@claim("ablation_gc_overprovisioning")
def ablation_gc_overprovisioning(m):
    # WAF grows monotonically with occupancy and starts near 1.
    assert m["waf_45"] <= m["waf_60"] <= m["waf_75"] <= m["waf_85"]
    assert m["waf_45"] < 1.3
    assert m["waf_85"] > m["waf_45"]


@claim("ablation_selectivity_threshold")
def ablation_selectivity_threshold(m):
    # A tiny threshold rejects even Q6's one-year range...
    assert m["offloads_0.02"] < m["offloads_0.25"]
    # ...the default accepts Q6/Q14 but not Q7's two-year range...
    assert m["offloads_0.25"] == 2
    # ...and a lax threshold also offloads Q7.
    assert m["offloads_0.6"] == 3
    # Q14 only wins when offloaded.
    assert m["q14_speedup_0.25"] > 20 * m["q14_speedup_0.02"]


@claim("ablation_channel_scaling")
def ablation_channel_scaling(m):
    # Internal bandwidth scales with channels until NAND, not PCIe, limits.
    assert m["internal_4"] < m["internal_8"] < m["internal_16"] <= m["internal_32"] * 1.05
    # With 4 channels the internal path is *below* the host cap: no NDP
    # bandwidth advantage.
    assert m["internal_4"] < m["host_16"]
    # At 16 channels (the paper's device class) internal > host by >25%.
    assert m["internal_16"] > 1.25 * m["host_16"]


@claim("ablation_matcher_vs_software")
def ablation_matcher_vs_software(m):
    # Hardware IP wins big; software-only in-SSD scanning loses to the host.
    assert m["conv_s"] / m["hw_s"] > 5.0
    assert m["sw_s"] > m["conv_s"]


@claim("ablation_join_order")
def ablation_join_order(m):
    # The join-order heuristic is the dominant term of Q14's gain.
    assert m["speedup_with"] > 10 * m["speedup_without"]
    assert m["speedup_with"] > 80.0


@claim("ablation_aggregate_pushdown")
def ablation_aggregate_pushdown(m):
    assert m["pushdown_s"] <= m["row_ship_s"] * 1.05
    assert m["pushdown_s"] < m["conv_s"]
    # The headline: aggregate states are orders of magnitude smaller than
    # the surviving rows.
    assert m["pushdown_bytes"] < m["row_ship_bytes"] / 100


@claim("ablation_read_cache")
def ablation_read_cache(m):
    # Hot dependent reads gain at least 2x.
    assert m["chase_speedup"] >= 2.0
    assert m["chase_hit_rate"] > 0.8
    # Scan bypass engaged: enabling the cache must not move scan time at all.
    assert m["scan_on_s"] == m["scan_off_s"]
    assert m["scan_bypasses"] > 0


# ------------------------------------------------- the reproduction's floors
@claim("resilience")
def resilience_storm(m):
    # Recovery never returns a wrong answer, and the storm does bite.
    assert m["wrong_results"] == 0
    assert m["faulted_fraction"] >= 0.01


@claim("cluster")
def cluster_fleet(m):
    # Every scatter-gather answer matches SQLite's on a >=4-node fleet that
    # failed over, offloaded and kept most storm jobs finishing.
    assert m["wrong_results"] == 0
    assert m["num_nodes"] >= 4
    assert m["failovers"] >= 1
    assert m["ndp_scans"] >= 1
    assert m["storm_goodput"] >= 0.5


@claim("sim_throughput")
def sim_throughput_fusion(m):
    # Multi-page shapes fuse: fewer events, an order of magnitude fewer at
    # channel saturation.
    for shape in ("striped", "saturation"):
        assert m["%s_events_fast" % shape] < m["%s_events_slow" % shape], shape
    assert m["saturation_event_reduction"] >= 10.0
    # One-page reads never fuse: both arms step the same events.
    assert m["point_events_fast"] == m["point_events_slow"]
    assert m["point_fused_pages"] == 0


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_paper_claim(name):
    experiment, check = CLAIMS[name]
    path = os.path.join(RESULTS, save_name(experiment) + ".metrics.json")
    with open(path) as handle:
        check(json.load(handle)["metrics"])
