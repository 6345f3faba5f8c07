"""Network links, storage nodes and the scale-out cluster.

The model is deliberately simple and standard: a link has a propagation
latency and a serialization bandwidth (one message at a time per
direction-agnostic link — a 10 GbE point-to-point port by default).
Storage nodes run their own server CPUs and SSDs; remote procedure calls
pay link latency both ways plus payload serialization.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.host.cpu import HostCPU
from repro.host.platform import System
from repro.resilience.hedge import HedgePolicy, hedged_race
from repro.sim.engine import Simulator, all_of
from repro.sim.resources import Resource
from repro.sim.units import transfer_ns, us_to_ns
from repro.ssd.config import SSDConfig

__all__ = [
    "LeastLoadedPlacement",
    "NetworkLink",
    "PlacementPolicy",
    "ReplicaMap",
    "RoundRobinPlacement",
    "ScaleOutCluster",
    "StorageNode",
    "make_placement",
]


# ---------------------------------------------------------------- placement
class PlacementPolicy:
    """Chooses a device/node for the next job.

    ``pick`` receives the *eligible* candidates as ``(index, load)`` pairs
    (callers filter out full devices first); ``load`` is an orderable
    pressure key — the serving layer uses
    ``(slots_in_use, controller.inflight_commands)``.  Deterministic by
    construction: ties always break on the smallest index.
    """

    name = "base"

    def pick(self, candidates: List[tuple]) -> int:
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through devices, skipping ineligible ones."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, candidates: List[tuple]) -> int:
        if not candidates:
            raise ValueError("no eligible placement candidates")
        indices = sorted(index for index, _load in candidates)
        for index in indices:
            if index >= self._next:
                self._next = index + 1
                return index
        # Wrapped around the cycle.
        self._next = indices[0] + 1
        return indices[0]


class LeastLoadedPlacement(PlacementPolicy):
    """Send the job to the least-loaded eligible device.

    Tie-breaking is explicitly deterministic: equal loads resolve to the
    lowest node index, independent of the order candidates are presented
    in.  Fleet runs must stay byte-deterministic under the race monitor's
    perturbation harness, which reorders same-timestamp batches — so the
    chosen index may only depend on the candidate *set*, never on
    arrival order.  The total key ``(load, index)`` guarantees that.
    """

    name = "least_loaded"

    def pick(self, candidates: List[tuple]) -> int:
        if not candidates:
            raise ValueError("no eligible placement candidates")
        best_load, best_index = min(
            (load, index) for index, load in candidates)
        return best_index


def make_placement(policy: str) -> PlacementPolicy:
    if policy == "round_robin":
        return RoundRobinPlacement()
    if policy == "least_loaded":
        return LeastLoadedPlacement()
    raise ValueError(
        "unknown placement policy %r (one of round_robin, least_loaded)"
        % (policy,))


class ReplicaMap:
    """Shard → node placement with rotation replication.

    Shard ``s``'s primary is node ``s % n``; its replicas are the next
    ``replication - 1`` nodes around the ring.  Rotation (rather than
    mirrored pairs) spreads a dead node's read load across *every* surviving
    node — the standard reason Cassandra/HDFS-style placements rotate.
    """

    def __init__(self, num_shards: int, num_nodes: int, replication: int = 2):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if not 1 <= replication <= num_nodes:
            raise ValueError("replication must be in [1, num_nodes]")
        self.num_shards = num_shards
        self.num_nodes = num_nodes
        self.replication = replication

    def primary(self, shard: int) -> int:
        return shard % self.num_nodes

    def replicas(self, shard: int) -> List[int]:
        """Backup nodes, in hedge/failover preference order."""
        return [(shard + offset) % self.num_nodes
                for offset in range(1, self.replication)]

    def nodes_for(self, shard: int) -> List[int]:
        """Primary first, then replicas."""
        return [self.primary(shard)] + self.replicas(shard)

    def primaries_on(self, node: int) -> List[int]:
        return [s for s in range(self.num_shards) if self.primary(s) == node]

    def shards_on(self, node: int) -> List[int]:
        """Every shard (primary or replica) this node holds a copy of."""
        return [s for s in range(self.num_shards) if node in self.nodes_for(s)]


class NetworkLink:
    """A point-to-point network port (default: 10 GbE)."""

    def __init__(
        self,
        sim: Simulator,
        bytes_per_sec: float = 1.25e9,
        latency_us: float = 50.0,
        name: str = "link",
    ):
        if bytes_per_sec <= 0:
            raise ValueError("link rate must be positive")
        if latency_us < 0:
            raise ValueError("latency cannot be negative")
        self.sim = sim
        self.bytes_per_sec = bytes_per_sec
        self.latency_us = latency_us
        self.name = name
        self.port = Resource(sim, capacity=1, name=name)
        self.bytes_moved = 0

    def send(self, num_bytes: int) -> Generator:
        """Fiber: move one message across the link.

        Serialization holds the port; propagation latency overlaps with the
        next message (store-and-forward pipe).
        """
        yield self.port.request()
        try:
            yield self.sim.timeout(transfer_ns(max(1, num_bytes), self.bytes_per_sec))
        finally:
            self.port.release()
        yield self.sim.timeout(us_to_ns(self.latency_us))
        self.bytes_moved += num_bytes


class StorageNode:
    """One storage server: CPUs + SSDs + a link back to the client host."""

    #: Per-RPC request handling cost on a node core (network stack + dispatch).
    RPC_HANDLE_US = 30.0

    def __init__(
        self,
        sim: Simulator,
        name: str,
        link: NetworkLink,
        ssds_per_node: int = 2,
        node_cores: int = 8,
        ssd_config: Optional[SSDConfig] = None,
    ):
        self.name = name
        self.link = link
        self.system = System(
            ssd_config=ssd_config, host_cores=node_cores,
            num_ssds=ssds_per_node, sim=sim,
        )
        self.rpcs_served = 0

    def serve(self, work: Generator, request_bytes: int, response_bytes: int) -> Generator:
        """Fiber: one RPC as seen from the client.

        Request crosses the link, the node handles and runs ``work`` (a
        fiber using the node's own System), and the response crosses back.
        Returns the work's value.
        """
        yield from self.link.send(request_bytes)
        yield from self.system.cpu.occupy(self.RPC_HANDLE_US, memory_bound=False)
        value = yield from work
        yield from self.system.cpu.occupy(self.RPC_HANDLE_US / 2, memory_bound=False)
        yield from self.link.send(response_bytes)
        self.rpcs_served += 1
        return value


class ScaleOutCluster:
    """A client host plus N storage nodes (Fig. 1(d)).

    The client's own CPU model handles whatever processing is not pushed
    down; each node hangs off its own link, so aggregate network bandwidth
    scales with the node count (as in a non-blocking ToR switch).
    """

    def __init__(
        self,
        num_nodes: int = 4,
        ssds_per_node: int = 2,
        link_bytes_per_sec: float = 1.25e9,
        link_latency_us: float = 50.0,
        client_cores: int = 24,
        node_cores: int = 8,
        ssd_config: Optional[SSDConfig] = None,
        sim: Optional[Simulator] = None,
    ):
        if num_nodes < 1:
            raise ValueError("need at least one storage node")
        # An externally supplied simulator lets callers attach an EventBus
        # (causal tracing) before the cluster spawns any fiber.
        self.sim = sim if sim is not None else Simulator()
        self.client_cpu = HostCPU(self.sim, cores=client_cores)
        self.nodes: List[StorageNode] = []
        for index in range(num_nodes):
            link = NetworkLink(
                self.sim, link_bytes_per_sec, link_latency_us,
                name="eth-node%d" % index,
            )
            self.nodes.append(StorageNode(
                self.sim, "node%d" % index, link,
                ssds_per_node=ssds_per_node, node_cores=node_cores,
                ssd_config=ssd_config,
            ))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def run_fiber(self, generator, name: str = "") -> Any:
        return self.sim.run(self.sim.process(generator, name=name))

    def fan_out(self, make_work: Callable[[StorageNode], Generator]) -> Generator:
        """Fiber: RPC every node concurrently (256-byte request and
        response); returns the list of values."""
        fibers = [
            self.sim.process(
                node.serve(make_work(node), 256, 256),
                name="rpc-%s" % node.name,
            )
            for node in self.nodes
        ]
        values = yield all_of(self.sim, fibers)
        return values

    def hedged_call(
        self,
        shard: int,
        replica_map: ReplicaMap,
        make_work: Callable[[StorageNode], Generator],
        policy: HedgePolicy,
        request_bytes: int = 256,
        response_bytes: int = 256,
    ) -> Generator:
        """Fiber: replica-aware read with a p99-deadline hedge.

        The RPC goes to the shard's primary; once the policy's deadline
        passes, a second leg fires against the first replica.  The first
        *successful* response wins and the losing leg is interrupted
        mid-flight.  A primary that fails outright (device error) fails
        over to the replica immediately — no deadline wait.  Raises the
        replica's error only when every copy failed.
        """
        def rpc(index: int) -> Generator:
            node = self.nodes[index]
            return node.serve(make_work(node), request_bytes, response_bytes)

        value = yield from hedged_race(
            self.sim, policy, replica_map.nodes_for(shard), rpc, "node",
            early_failure="failover", both_failed="backup")
        return value
