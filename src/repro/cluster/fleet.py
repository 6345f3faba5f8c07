"""The sharded fleet: N storage nodes, one simulated world, shard copies.

:class:`ShardedFleet` composes the pieces that already exist in isolation —
:class:`repro.net.cluster.ScaleOutCluster` (nodes, links, client CPU),
:class:`ReplicaMap` (rotation replication), the MiniDB storage/engine stack
— into a fleet holding hash- or range-partitioned tables.  Each node runs
its own :class:`repro.db.storage.Database` and query engine on its own
:class:`System`, all sharing one :class:`Simulator`; shard copies are
ordinary heap tables named ``<table>#s<k>`` so the whole single-device NDP
datapath (planner, matcher prefilter, ScanFilter/ScanAggregate SSDlets)
runs unchanged against each shard.

Node loss is modeled two ways, composing: :meth:`crash_node` marks the node
down in the catalog (routing skips it) *and* attaches a crash-window fault
injector to each of its devices, so work already in flight on that node
dies with :class:`DeviceCrashedError` mid-scan — the scatter-gather
executor's failover path, not an idealized clean cutover, is what recovers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.kvstore import KVStore
from repro.cluster.catalog import (
    PartitionSpec,
    ShardCatalog,
    shard_table_name,
)
from repro.core.errors import DeviceCrashedError
from repro.db.catalog import TableSchema
from repro.db.executor import Engine, EngineConfig, ExecutionMode
from repro.db.planner import create_engine
from repro.db.storage import KEY_TYPES, Database, pack_table
from repro.net.cluster import ReplicaMap, ScaleOutCluster, StorageNode
from repro.ssd.config import SSDConfig
from repro.testing.faults import CrashWindow, FaultStorm, StormInjector

__all__ = ["ShardedFleet", "ShardedKVStore"]

#: A crash window long enough to outlast any benchmark (the node stays dark
#: until recover_node detaches the injector).
_FOREVER_US = 1e12


class ShardedFleet:
    """A scale-out cluster plus per-node databases and a shard catalog."""

    def __init__(
        self,
        num_nodes: int = 4,
        num_shards: Optional[int] = None,
        replication: int = 2,
        ssds_per_node: int = 1,
        ssd_config: Optional[SSDConfig] = None,
        node_cores: int = 8,
        link_bytes_per_sec: float = 1.25e9,
        link_latency_us: float = 50.0,
        mode: ExecutionMode = ExecutionMode.BISCUIT,
        engine_config: Optional[EngineConfig] = None,
        sim=None,
    ):
        self.cluster = ScaleOutCluster(
            num_nodes=num_nodes,
            ssds_per_node=ssds_per_node,
            link_bytes_per_sec=link_bytes_per_sec,
            link_latency_us=link_latency_us,
            node_cores=node_cores,
            ssd_config=ssd_config,
            sim=sim,
        )
        self.sim = self.cluster.sim
        self.replica_map = ReplicaMap(
            num_shards if num_shards is not None else 2 * num_nodes,
            num_nodes, replication)
        self.catalog = ShardCatalog(self.replica_map)
        self.mode = mode
        self.engine_config = engine_config
        self.databases: List[Database] = [
            Database(node.system.fs) for node in self.cluster.nodes
        ]
        self._engines: List[Optional[Engine]] = [None] * num_nodes
        self._node_index: Dict[str, int] = {
            node.name: i for i, node in enumerate(self.cluster.nodes)
        }
        self._crash_injectors: Dict[int, list] = {}
        self.crashes = 0
        self.recoveries = 0

    # ------------------------------------------------------------- topology
    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    @property
    def num_shards(self) -> int:
        return self.replica_map.num_shards

    @property
    def down(self) -> Tuple[int, ...]:
        """The nodes currently dark — the catalog's liveness, read-only."""
        return self.catalog.down_nodes

    def node(self, index: int) -> StorageNode:
        return self.cluster.nodes[index]

    def node_index(self, node: StorageNode) -> int:
        return self._node_index[node.name]

    def engine(self, index: int) -> Engine:
        """The node's query engine (built lazily, after tables loaded)."""
        engine = self._engines[index]
        if engine is None:
            engine = self._engines[index] = create_engine(
                self.cluster.nodes[index].system, self.databases[index],
                self.mode, self.engine_config)
        return engine

    def run_fiber(self, generator, name: str = "") -> Any:
        return self.cluster.run_fiber(generator, name=name)

    # -------------------------------------------------------------- loading
    def load_sharded(
        self,
        schema: TableSchema,
        rows: Sequence[Sequence[Any]],
        key: Optional[str] = None,
        kind: str = "hash",
        bounds: Sequence[Any] = (),
    ) -> PartitionSpec:
        """Partition rows and install every shard copy on its nodes.

        Each copy is a full heap table (pages, indexes) under the storage
        name ``<table>#s<k>``, packed once and installed on each replica; the
        logical name is aliased on every node so SQL compiles anywhere,
        though only shard copies are ever scanned.
        """
        key = key or schema.columns[0].name
        key_position = schema.position(key)
        spec = self.catalog.register(PartitionSpec(
            schema.name, key, kind, self.replica_map.num_shards, tuple(bounds),
            KEY_TYPES[schema.columns[key_position].ctype]))
        parts = spec.partition_rows(rows, key_position)
        page_size = self.databases[0].fs.page_size
        for shard, shard_rows in enumerate(parts):
            name = shard_table_name(schema.name, shard)
            packed = pack_table(schema, shard_rows, page_size)
            for node_index in self.replica_map.nodes_for(shard):
                self.databases[node_index].install_table(packed, name)
        # Bind the logical name on every node holding at least one copy so
        # compile_sql resolves columns there (the alias is never scanned).
        for node_index in range(self.num_nodes):
            db = self.databases[node_index]
            if schema.name in db.tables:
                continue
            for shard in self.replica_map.shards_on(node_index):
                name = shard_table_name(schema.name, shard)
                if name in db.tables:
                    db.alias_table(schema.name, db.tables[name])
                    break
        return spec

    def shard_rows(self, table: str, shard: int) -> int:
        """Row count of one shard (from any alive copy; for skew reports)."""
        name = shard_table_name(table, shard)
        for node_index in self.catalog.nodes_for(shard):
            storage = self.databases[node_index].tables.get(name)
            if storage is not None:
                return storage.num_rows
        return 0

    def shard_row_counts(self, table: str) -> List[int]:
        return [self.shard_rows(table, shard)
                for shard in range(self.num_shards)]

    # ------------------------------------------------------------ node loss
    def ensure_alive(self, node_index: int) -> None:
        """Fail fast when work is routed at a node known to be down."""
        if self.catalog.is_down(node_index):
            raise DeviceCrashedError("node%d is down" % node_index)

    def crash_node(self, node_index: int) -> None:
        """Take a node dark: catalog routing skips it, in-flight work dies.

        Every device on the node gets a crash-window injector, so scans
        already running there fail with :class:`DeviceCrashedError` at
        their next NAND access — exercising the executor's failover path
        mid-scatter, not just at dispatch time.
        """
        if self.catalog.is_down(node_index):
            return
        self.catalog.mark_down(node_index)
        self.crashes += 1
        now_us = self.sim.now / 1000.0
        storm = FaultStorm(crashes=(
            CrashWindow(start_us=now_us, duration_us=_FOREVER_US),))
        injectors = []
        for device in self.cluster.nodes[node_index].system.devices:
            injector = StormInjector(self.sim, storm)
            device.attach_fault_injector(injector)
            injectors.append(injector)
        self._crash_injectors[node_index] = injectors

    def recover_node(self, node_index: int) -> None:
        """Bring a crashed node back: routing resumes, devices serve again."""
        if not self.catalog.is_down(node_index):
            return
        self.catalog.mark_up(node_index)
        self.recoveries += 1
        self._crash_injectors.pop(node_index, None)
        for device in self.cluster.nodes[node_index].system.devices:
            device.attach_fault_injector(None)

    # ------------------------------------------------------------ accounting
    def network_bytes(self) -> int:
        """Bytes moved over every node link (both directions)."""
        return sum(node.link.bytes_moved for node in self.cluster.nodes)

    def nand_bytes_read(self) -> int:
        """Logical bytes the fleet's devices read off NAND."""
        total = 0
        for node in self.cluster.nodes:
            for device in node.system.devices:
                total += device.controller.stats.bytes_read
        return total

    def rpcs_served(self) -> int:
        return sum(node.rpcs_served for node in self.cluster.nodes)

    def ndp_scans(self) -> int:
        """Offloaded scans across every instantiated node engine."""
        return sum(engine.ndp_scans for engine in self._engines
                   if engine is not None)

    def begin_query(self, cold: bool = True) -> None:
        """Reset per-query statistics on every instantiated node engine."""
        for engine in self._engines:
            if engine is not None:
                engine.begin_query(cold=cold)


class ShardedKVStore:
    """The SkimpyStash KV store, hash-partitioned across the fleet.

    Every shard is an independent :class:`repro.apps.kvstore.KVStore` log
    file replicated onto the shard's nodes; the coordinator groups lookup
    keys by shard and the executor fans them out with replica failover.
    """

    def __init__(self, fleet: ShardedFleet, name: str = "kv",
                 buckets: int = 64):
        self.fleet = fleet
        self.name = name
        self.buckets = buckets
        #: (shard, node_index) -> KVStore copy
        self.stores: Dict[Tuple[int, int], KVStore] = {}
        self.spec: Optional[PartitionSpec] = None

    @classmethod
    def build(cls, fleet: ShardedFleet,
              items: Sequence[Tuple[bytes, bytes]],
              name: str = "kv", buckets: int = 64) -> "ShardedKVStore":
        """Partition items by key hash and build every shard copy."""
        store = cls(fleet, name, buckets)
        store.spec = fleet.catalog.register(PartitionSpec(
            name, "key", "hash", fleet.num_shards))
        parts: List[List[Tuple[bytes, bytes]]] = [
            [] for _ in range(fleet.num_shards)]
        for key, value in items:
            parts[store.spec.shard_of(key)].append((key, value))
        for shard, shard_items in enumerate(parts):
            path = "/kv/%s#s%d.log" % (name, shard)
            for node_index in fleet.replica_map.nodes_for(shard):
                node = fleet.node(node_index)
                store.stores[(shard, node_index)] = KVStore.build(
                    node.system, path, shard_items, buckets=buckets)
        return store

    def shard_of(self, key: bytes) -> int:
        assert self.spec is not None
        return self.spec.shard_of(key)

    def store_on(self, shard: int, node_index: int) -> KVStore:
        return self.stores[(shard, node_index)]

    def group_keys(self, keys: Sequence[bytes]) -> Dict[int, List[bytes]]:
        """Lookup keys bucketed by owning shard (shard order deterministic)."""
        groups: Dict[int, List[bytes]] = {}
        for key in keys:
            groups.setdefault(self.shard_of(key), []).append(key)
        return {shard: groups[shard] for shard in sorted(groups)}
