"""Sharded string search: Scale-up (Fig. 1(b)) and Scale-out (Fig. 1(c)/(d)).

Section VI's RAID discussion: modern multi-SSD deployments use a
software-defined data layout with per-disk file semantics — exactly what
NDP needs.  A logical log is sharded file-per-SSD and searched by fanning
the single-device searches of :mod:`repro.apps.string_search` out over the
shards; nothing here reads or launches by itself.

**Scale-up** — one host, several SSDs, optionally behind a shared PCIe
fabric.  Biscuit runs Searcher SSDlets *on every device at once*, while
Conv must pull every shard through the host interface (and the fabric):
"the gap can grow if there are many SSDs on a switched PCIe fabric".

**Scale-out** — the same search across a storage cluster, three ways, each
moving the computation closer to the data:

1. **pull** — storage nodes act as dumb networked disks (Fig. 1(c)): every
   byte crosses the node's SSDs, the node, the network, and the client's
   memory system, where the client scans it.
2. **node compute** — the Hadoop-style arrangement (Fig. 1(d)): each node
   scans its own shards on its server CPUs and returns only counts.
3. **in-SSD NDP** — Biscuit inside every node's SSDs: the matcher IP scans
   at flash wire speed; nodes return only counts.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.apps.string_search import (
    READ_UNIT,
    STRING_SEARCH_MODULE,
    conv_string_search,
    launch_searchers,
    searcher_shares,
)
from repro.core import SSD
from repro.host.platform import System
from repro.net.cluster import ScaleOutCluster, StorageNode
from repro.sim.engine import all_of
from repro.sim.resources import Resource

__all__ = [
    "install_sharded_weblog",
    "install_cluster_weblog",
    "conv_sharded_search",
    "biscuit_sharded_search",
    "run_conv_sharded",
    "run_biscuit_sharded",
    "search_pull",
    "search_node_compute",
    "search_ndp",
    "run_strategy",
]

SHARD_PATH = "/logs/shard.log"


def install_sharded_weblog(
    system: System,
    total_bytes: int,
    keyword: str,
    page_match_probability: float = 0.02,
) -> List[str]:
    """Shard a logical web log across every SSD; returns per-shard paths."""
    share = total_bytes // system.num_ssds
    for fs in system.filesystems:
        if not fs.exists(SHARD_PATH):
            fs.install_synthetic(
                SHARD_PATH, share,
                analytic_profile={keyword.encode(): page_match_probability},
            )
    return [SHARD_PATH] * system.num_ssds


def install_cluster_weblog(
    cluster: ScaleOutCluster,
    total_bytes: int,
    keyword: str,
    page_match_probability: float = 0.02,
) -> None:
    """Shard a logical log across every SSD of every (equal-sized) node."""
    for node in cluster.nodes:
        install_sharded_weblog(node.system, total_bytes // len(cluster.nodes),
                               keyword, page_match_probability)


def _sum_of(sim, fibers: List[Generator], name: str) -> Generator:
    """Fiber: run ``fibers`` concurrently; returns the sum of their values."""
    counts = yield all_of(sim, [
        sim.process(fiber, name="%s%d" % (name, index))
        for index, fiber in enumerate(fibers)
    ])
    return sum(counts)


# ----------------------------------------------------------------- Scale-up
def conv_sharded_search(system: System, keyword: str,
                        scan_workers: int = 1) -> Generator:
    """Fiber: the host scans every shard itself (readahead + Boyer-Moore).

    Shards are read concurrently — the host has cores to spare — but every
    byte crosses its SSD's link, the shared fabric, and the host memory
    system.  ``scan_workers`` fibers split each shard into byte ranges of
    at least one read unit.
    """
    scans = []
    for ssd, fs in enumerate(system.filesystems):
        size = fs.lookup(SHARD_PATH).size
        per_worker = max(READ_UNIT, (size + scan_workers - 1) // scan_workers)
        scans += [
            conv_string_search(system, SHARD_PATH, keyword, ssd, begin,
                               min(begin + per_worker, size))
            for begin in range(0, size, per_worker)
        ]
    return _sum_of(system.sim, scans, "conv-scan")


def _biscuit_one_shard(system: System, index: int, keyword: str,
                       searchers: int) -> Generator:
    ssd = SSD(system, device_index=index)
    mid = yield from ssd.load(STRING_SEARCH_MODULE)  # held for the System's life
    fs = system.filesystems[index]
    total = yield from launch_searchers(
        ssd, mid, "search-ssd%d" % index, SHARD_PATH, keyword,
        searcher_shares(fs.lookup(SHARD_PATH).size, fs.page_size, searchers))
    return total


def biscuit_sharded_search(
    system: System, keyword: str, searchers_per_ssd: int = 4
) -> Generator:
    """Fiber: every SSD filters its own shard; only counts cross the fabric."""
    return _sum_of(system.sim, [
        _biscuit_one_shard(system, index, keyword, searchers_per_ssd)
        for index in range(system.num_ssds)
    ], "ndp-shard")


def _timed(world, fiber: Generator) -> Tuple[int, float]:
    """Run a search on a System or a cluster; returns (count, elapsed s)."""
    start = world.sim.now_s
    count = world.run_fiber(fiber)
    return count, world.sim.now_s - start


def run_conv_sharded(system: System, keyword: str) -> Tuple[int, float]:
    return _timed(system, conv_sharded_search(system, keyword))


def run_biscuit_sharded(system: System, keyword: str) -> Tuple[int, float]:
    return _timed(system, biscuit_sharded_search(system, keyword))


# ---------------------------------------------------------------- Scale-out
def _sum_over_nodes(cluster: ScaleOutCluster, node_work) -> Generator:
    values = yield from cluster.fan_out(node_work)
    return sum(values)


def search_pull(cluster: ScaleOutCluster, keyword: str) -> Generator:
    """Fiber: nodes ship raw shard bytes; the client scans everything."""
    return _sum_over_nodes(cluster, lambda node: _sum_of(cluster.sim, [
        _pull_one_shard(cluster, node, ssd)
        for ssd in range(node.system.num_ssds)
    ], "pull-%s-ssd" % node.name))


def _pull_one_shard(cluster: ScaleOutCluster, node: StorageNode,
                    ssd: int) -> Generator:
    handle = node.system.open_host(SHARD_PATH, ssd=ssd)
    # Two client scans per stream may be in flight (double buffering).
    scan_slots = Resource(cluster.sim, capacity=2, name="scan-slots")
    scans: List = []

    def ship(_offset: int, take: int, _pages: int) -> Generator:
        yield from node.link.send(take)  # raw bytes over the network
        yield scan_slots.request()  # backpressure from the client scan
        scans.append(cluster.sim.process(
            _client_scan(cluster, scan_slots, take), name="client-scan"))

    yield from handle.stream(0, handle.size, READ_UNIT, ship)
    if scans:
        yield all_of(cluster.sim, scans)
    return 0  # analytic mode: timing only


def _client_scan(cluster: ScaleOutCluster, slots: Resource,
                 nbytes: int) -> Generator:
    try:
        yield from cluster.client_cpu.scan(nbytes)
    finally:
        slots.release()


def search_node_compute(cluster: ScaleOutCluster, keyword: str) -> Generator:
    """Fiber: each node scans its own shards on six of its server CPUs."""
    return _sum_over_nodes(cluster, lambda node: conv_sharded_search(
        node.system, keyword, scan_workers=6))


def search_ndp(cluster: ScaleOutCluster, keyword: str) -> Generator:
    """Fiber: Biscuit Searcher SSDlets inside every node's SSDs."""
    return _sum_over_nodes(cluster, lambda node: biscuit_sharded_search(
        node.system, keyword))


STRATEGIES = {
    "pull": search_pull,
    "node-compute": search_node_compute,
    "in-ssd-ndp": search_ndp,
}


def run_strategy(cluster: ScaleOutCluster, strategy: str, keyword: str) -> Tuple[int, float]:
    """Run one strategy to completion; returns (count, elapsed seconds)."""
    return _timed(cluster, STRATEGIES[strategy](cluster, keyword))
