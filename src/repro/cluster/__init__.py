"""repro.cluster — sharded NDP fleet with replicated scatter-gather SQL.

Scale-out near-data processing: TPC-H tables and the KV store hash- or
range-partitioned across N simulated storage nodes (rotation replication),
a shard catalog that survives node loss, and a coordinator that scatters
scans/aggregates/point-lookups to the owning shards — each shard running
the unmodified single-device NDP offload — and merges the device-reduced
partials client-side.

* :mod:`repro.cluster.catalog` — partition specs, shard routing, liveness.
* :mod:`repro.cluster.fleet` — nodes + per-node databases/engines, sharded
  loading, crash/recover with in-flight fault injection.
* :mod:`repro.cluster.executor` — the scatter-gather coordinator (ordered
  merge, aggregate-state combine, first-wins point lookups, hedged/retry
  failover per shard).
* :mod:`repro.cluster.serve` — placement-aware tenant job scheduling over
  the fleet.
"""

from repro.cluster.catalog import (
    PartitionSpec,
    ShardCatalog,
    ShardUnavailableError,
    shard_table_name,
    stable_shard_hash,
)
from repro.cluster.executor import ClusterExecutor
from repro.cluster.fleet import ShardedFleet, ShardedKVStore

__all__ = [
    "ClusterExecutor",
    "PartitionSpec",
    "ShardCatalog",
    "ShardUnavailableError",
    "ShardedFleet",
    "ShardedKVStore",
    "shard_table_name",
    "stable_shard_hash",
]
