"""Scale-out (Fig. 1(c)/(d)): three tiers of near-data processing.

Extension experiment: a 4-node cluster (2 SSDs per node, 10 GbE links,
4-core storage servers) searches a sharded 1 GiB log.  Pulling raw data is
network-bound; node-level compute is bound by the wimpy server CPUs;
in-SSD NDP runs at aggregate flash speed.
"""

from repro.apps.sharded_search import install_cluster_weblog, run_strategy
from repro.bench.harness import ExperimentResult, save_result
from repro.net.cluster import ScaleOutCluster
from repro.sim.units import GIB

TOTAL_BYTES = 1 * GIB


def run_scaleout():
    cluster = ScaleOutCluster(num_nodes=4, ssds_per_node=2, node_cores=4)
    install_cluster_weblog(cluster, TOTAL_BYTES, "KEY")
    rows = []
    metrics = {}
    for strategy in ("pull", "node-compute", "in-ssd-ndp"):
        _, elapsed = run_strategy(cluster, strategy, "KEY")
        gbps = TOTAL_BYTES / elapsed / 1e9
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


def test_scaleout_cluster(once):
    result = once(run_scaleout)
    print()
    print(result.format())
    save_result(result, "scaleout_cluster")
    m = result.metrics
    # Pull is bounded by the four 10 GbE links (4 x 1.25 GB/s).
    assert m["pull_gbps"] <= 5.0 * 1.05
    # Node compute beats pulling; in-SSD NDP beats node compute.
    assert m["node-compute_gbps"] > 1.5 * m["pull_gbps"]
    assert m["in-ssd-ndp_gbps"] > 1.8 * m["node-compute_gbps"]
