"""Pointer chasing: dependent-read graph traversal (Section V-C, Table IV).

The paper traverses a 42 M-vertex/1.5 B-edge Twitter-derived graph stored in
Neo4j: 100 random-walk traversals whose execution time is "essentially the
sum of individual time needed for subsequent read operations".  The Conv
path pays the full host round trip (plus host CPU per hop, which inflates
under memory load); the Biscuit path keeps every hop inside the device.

Graph substitute (DESIGN.md): nodes live as fixed 64-byte records, 64 per
4 KiB page.

* **exact mode** — a small power-law digraph is materialized into real
  records; traversal parses real bytes and its path is independently
  checkable.
* **analytic mode** — paper-scale node count; the successor of (node, hop)
  is a deterministic hash, so no bytes are materialized but every hop still
  issues a timed, placement-correct page read.

Calibration: host per-hop processing 4.0 µs (memory-bound → degrades with
load), device per-hop processing 8.4 µs (slower core, load-immune).  With
the Table III read latencies this lands on the paper's 138.6 s vs ~124 s at
the paper's hop count.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Generator, List, Optional, Sequence, Tuple

from repro.core import SSD, Application, DeviceFile, SSDLet, SSDLetProxy, SSDletModule
from repro.host.platform import System

__all__ = [
    "GraphFile",
    "build_exact_graph",
    "build_analytic_graph",
    "conv_pointer_chase",
    "launch_chaser",
    "biscuit_pointer_chase",
    "run_conv",
    "run_biscuit",
    "PAPER_TOTAL_HOPS",
]

NODE_RECORD_BYTES = 64
NODES_PER_PAGE = 4096 // NODE_RECORD_BYTES
MAX_NEIGHBORS = 15  # fits a 64-byte record: u16 degree + 15 × u32

HOST_HOP_US = 4.0  # per-hop host processing (parse record, pick next)
DEVICE_HOP_US = 8.4  # same work on the slower device core

#: Hop count implied by the paper's Table IV (138.6 s / ~94 us per hop).
PAPER_TOTAL_HOPS = 1_475_000

POINTER_CHASE_MODULE = SSDletModule("pointer-chase")


class GraphFile:
    """A graph stored on the SSD: node records in pages, plus a successor rule."""

    def __init__(self, path: str, num_nodes: int, seed: int, exact: bool):
        self.path = path
        self.num_nodes = num_nodes
        self.seed = seed
        self.exact = exact

    def page_of(self, node: int) -> int:
        return node // NODES_PER_PAGE

    def record_offset(self, node: int) -> int:
        return node * NODE_RECORD_BYTES

    def successor_from_record(self, record: bytes, node: int, hop: int) -> int:
        """Exact mode: pick a neighbor deterministically from real bytes."""
        (degree,) = struct.unpack_from("<H", record, 0)
        if degree == 0:
            return self._hash_successor(node, hop)  # dead end: jump
        pick = self._hash(node, hop) % degree
        (neighbor,) = struct.unpack_from("<I", record, 2 + 4 * pick)
        return neighbor

    def analytic_successor(self, node: int, hop: int) -> int:
        return self._hash_successor(node, hop)

    def step(self, handle, node: int, hop: int) -> Generator:
        """Fiber: one walk step — read ``node``'s page through ``handle``
        (real bytes in exact mode, timing only in analytic mode); returns
        the successor.  The caller charges its own per-hop CPU."""
        page = self.page_of(node)
        take = min(4096, handle.size - page * 4096)
        if self.exact:
            data = yield from handle.read(page * 4096, take)
            record_start = self.record_offset(node) - page * 4096
            record = data[record_start:record_start + NODE_RECORD_BYTES]
            return self.successor_from_record(record, node, hop)
        yield from handle.read_timing_only(page * 4096, take)
        return self.analytic_successor(node, hop)

    def _hash_successor(self, node: int, hop: int) -> int:
        return self._hash(node, hop) % self.num_nodes

    def _hash(self, node: int, hop: int) -> int:
        digest = hashlib.blake2b(
            b"%d:%d:%d" % (self.seed, node, hop), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")


def _power_law_degree(rng: random.Random, max_degree: int) -> int:
    """Discrete approximate power-law degree in [1, max_degree]."""
    u = rng.random()
    degree = int((1.0 - u) ** (-1.0 / 1.8))
    return max(1, min(max_degree, degree))


def build_exact_graph(
    system: System, path: str, num_nodes: int, seed: int = 7
) -> GraphFile:
    """Materialize a small power-law digraph as real node records."""
    rng = random.Random(seed)
    records = bytearray()
    for node in range(num_nodes):
        degree = _power_law_degree(rng, min(MAX_NEIGHBORS, num_nodes - 1))
        neighbors = rng.sample(
            [n for n in range(num_nodes) if n != node], degree
        )
        record = struct.pack("<H", degree)
        record += b"".join(struct.pack("<I", n) for n in neighbors)
        record = record.ljust(NODE_RECORD_BYTES, b"\x00")
        records.extend(record)
    system.fs.install(path, bytes(records))
    return GraphFile(path, num_nodes, seed, exact=True)


def build_analytic_graph(
    system: System, path: str, num_nodes: int, seed: int = 7
) -> GraphFile:
    """Declare a paper-scale graph; records are never materialized."""
    size = num_nodes * NODE_RECORD_BYTES
    system.fs.install_synthetic(path, size)
    return GraphFile(path, num_nodes, seed, exact=False)


def _start_nodes(graph: GraphFile, num_walks: int) -> List[int]:
    rng = random.Random(graph.seed ^ 0x5EED)
    return [rng.randrange(graph.num_nodes) for _ in range(num_walks)]


# ---------------------------------------------------------------------- Conv
def conv_pointer_chase(
    system: System, graph: GraphFile, num_walks: int, hops_per_walk: int
) -> Generator:
    """Fiber: host-driven traversal; returns the list of final node ids."""
    handle = system.open_host(graph.path)
    finals: List[int] = []
    for start in _start_nodes(graph, num_walks):
        node = start
        for hop in range(hops_per_walk):
            node = yield from graph.step(handle, node, hop)
            yield from system.cpu.occupy(HOST_HOP_US)
        finals.append(node)
    return finals


# ------------------------------------------------------------------- Biscuit
class Chaser(SSDLet):
    """SSDlet: performs the walks device-side, ships final nodes back.

    Args: (file_token, graph, start_nodes, hops_per_walk).
    """

    OUT_TYPES = (int,)

    def run(self) -> Generator:
        handle = yield from self.open(self.arg(0))
        graph: GraphFile = self.arg(1)
        starts: Sequence[int] = self.arg(2)
        hops: int = self.arg(3)
        for start in starts:
            node = start
            for hop in range(hops):
                node = yield from graph.step(handle, node, hop)
                yield from self.compute(DEVICE_HOP_US)
            yield from self.out(0).put(node)


POINTER_CHASE_MODULE.register("idChaser", Chaser)


def launch_chaser(
    ssd: SSD, mid: int, app_name: str, graph: GraphFile,
    starts: Sequence[int], hops_per_walk: int,
) -> Generator:
    """Fiber: one Chaser SSDlet walks from each of ``starts``; returns the
    final node of every walk."""
    app = Application(ssd, app_name)
    token = DeviceFile(ssd, graph.path)
    chaser = SSDLetProxy(app, mid, "idChaser", (token, graph, starts, hops_per_walk))
    port = app.connectTo(chaser.out(0), int)

    def collect() -> Generator:
        finals: List[int] = []
        for _ in starts:
            value = yield from port.get_opt()
            if value is None:
                break  # the walk failed; wait() raises why
            finals.append(value)
        return finals

    finals = yield from app.run(collect())
    return finals


def biscuit_pointer_chase(
    system: System, graph: GraphFile, num_walks: int, hops_per_walk: int
) -> Generator:
    """Fiber: the host program that offloads the walks to the SSD."""
    ssd = SSD(system)
    finals = yield from ssd.holding(POINTER_CHASE_MODULE, lambda mid: launch_chaser(
        ssd, mid, "pointer-chase", graph, _start_nodes(graph, num_walks),
        hops_per_walk))
    return finals


def run_conv(system: System, graph: GraphFile, num_walks: int, hops: int) -> Tuple[List[int], float]:
    """Run the Conv traversal; returns (final nodes, elapsed seconds)."""
    t0 = system.sim.now_s
    finals = system.run_fiber(conv_pointer_chase(system, graph, num_walks, hops))
    return finals, system.sim.now_s - t0


def run_biscuit(system: System, graph: GraphFile, num_walks: int, hops: int) -> Tuple[List[int], float]:
    """Run the Biscuit traversal; returns (final nodes, elapsed seconds)."""
    t0 = system.sim.now_s
    finals = system.run_fiber(biscuit_pointer_chase(system, graph, num_walks, hops))
    return finals, system.sim.now_s - t0
