"""The shard catalog: table → partition key → shard → nodes.

A :class:`PartitionSpec` describes how one logical table (or the KV store's
key space) splits into shards — by a PYTHONHASHSEED-independent hash of the
partition key, or by sorted range split points.  The :class:`ShardCatalog`
binds every spec to one :class:`repro.net.cluster.ReplicaMap` (rotation
replication) and answers the routing questions the scatter-gather executor
asks: which shard owns a value, which nodes hold a shard, and — after a
node loss — which of those nodes are still alive.  Routing survives node
loss by construction: dead nodes are filtered out of ``nodes_for`` while
the placement itself (primary/replica roles) is immutable, so a recovered
node resumes exactly its old shards.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.cluster import ReplicaMap

__all__ = [
    "PartitionSpec",
    "ShardCatalog",
    "ShardUnavailableError",
    "shard_table_name",
    "stable_shard_hash",
]


class ShardUnavailableError(RuntimeError):
    """Every node holding a shard's copies is down."""


def stable_shard_hash(value: Any) -> int:
    """Hash a partition-key value independent of PYTHONHASHSEED.

    ``zlib.crc32`` over the value's repr: stable across processes and hash
    seeds (Python's builtin ``hash`` is neither), cheap, and uniform enough
    for shard spreading — the skew test pins the spread to within 1.2x of
    ideal on TPC-H lineitem.
    """
    if isinstance(value, bytes):
        blob = value
    else:
        blob = repr(value).encode("utf-8")
    return zlib.crc32(blob)


def shard_table_name(table: str, shard: int) -> str:
    """The storage name of one shard copy (``lineitem#s3``)."""
    return "%s#s%d" % (table, shard)


@dataclass(frozen=True)
class PartitionSpec:
    """How one logical table splits into shards.

    ``kind`` is ``"hash"`` (key hashed onto shards; equality predicates
    prune to one shard, ranges cannot prune) or ``"range"`` (``bounds``
    holds the ``num_shards - 1`` sorted split points; shard ``i`` owns
    ``bounds[i-1] <= value < bounds[i]``, so both equality and range
    predicates prune).

    ``key_type`` is the type the key column stores its values as
    (:data:`repro.db.storage.KEY_TYPES`).  A hash spec coerces every value
    through it before hashing — the row's key and a predicate's literal
    alike — because the hash reads ``repr``: ``5`` and ``5.0`` (or ``-0.0``
    and ``0.0``) are one value to the column and to ``==``, but two reprs.
    ``None`` hashes values as given (the KV store's bytes keys).
    """

    table: str
    key: str
    kind: str = "hash"
    num_shards: int = 4
    bounds: Tuple[Any, ...] = ()
    key_type: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "range"):
            raise ValueError("partition kind must be hash or range, got %r"
                             % (self.kind,))
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if self.kind == "range":
            if len(self.bounds) != self.num_shards - 1:
                raise ValueError(
                    "range partitioning over %d shards needs %d split "
                    "points, got %d"
                    % (self.num_shards, self.num_shards - 1, len(self.bounds)))
            if list(self.bounds) != sorted(self.bounds):
                raise ValueError("range split points must be sorted")
        elif self.bounds:
            raise ValueError("hash partitioning takes no split points")

    def shard_of(self, value: Any) -> int:
        """The shard owning one partition-key value."""
        if self.kind == "hash":
            key_type = self.key_type
            if key_type is float:
                value = float(value) + 0.0  # -0.0 + 0.0 is 0.0
            elif key_type is not None:
                value = key_type(value)
            return stable_shard_hash(value) % self.num_shards
        return bisect.bisect_right(self.bounds, value)

    def target_shards(self, constraint=None) -> List[int]:
        """The shards a constrained scan must visit (superset-safe).

        ``constraint`` is the output of
        :func:`repro.db.planner.partition_constraints`: ``("eq", values)``
        prunes to the owning shards under either kind; ``("range", ...)``
        prunes to a contiguous shard span under range partitioning (hash
        destroys order, so ranges scan everything there); ``None`` scans
        every shard.
        """
        everything = list(range(self.num_shards))
        if constraint is None:
            return everything
        tag, detail = constraint
        if tag == "eq":
            try:
                return sorted({self.shard_of(value) for value in detail})
            except (TypeError, ValueError, OverflowError):
                # A literal the key column cannot store ('x' or inf against
                # an int key) equals no stored value, so any shard set
                # answers it; every shard needs no special case.
                return everything
        if tag == "range" and self.kind == "range":
            low, high, _low_inc, _high_inc = detail
            first = 0 if low is None else self.shard_of(low)
            last = self.num_shards - 1 if high is None else self.shard_of(high)
            return list(range(first, last + 1))
        return everything

    def partition_rows(
        self, rows: Sequence[Sequence[Any]], key_position: int
    ) -> List[List[Sequence[Any]]]:
        """Split rows into per-shard lists, preserving input order."""
        parts: List[List[Sequence[Any]]] = [[] for _ in range(self.num_shards)]
        shard_of = self.shard_of
        for row in rows:
            parts[shard_of(row[key_position])].append(row)
        return parts


class ShardCatalog:
    """Every table's partition spec plus live node tracking.

    One :class:`ReplicaMap` serves every registered table, so a shard index
    means the same node set regardless of table — co-partitioned tables
    land together, and a node crash takes the same shard slice of every
    table (the realistic failure unit).
    """

    def __init__(self, replica_map: ReplicaMap):
        self.replica_map = replica_map
        self.specs: Dict[str, PartitionSpec] = {}
        self._down: set = set()

    # -------------------------------------------------------------- specs
    def register(self, spec: PartitionSpec) -> PartitionSpec:
        if spec.num_shards != self.replica_map.num_shards:
            raise ValueError(
                "spec for %r has %d shards but the catalog's replica map "
                "has %d" % (spec.table, spec.num_shards,
                            self.replica_map.num_shards))
        self.specs[spec.table] = spec
        return spec

    def spec(self, table: str) -> PartitionSpec:
        try:
            return self.specs[table]
        except KeyError:
            raise KeyError("table %r is not sharded" % table) from None

    def is_sharded(self, table: str) -> bool:
        return table in self.specs

    def shard_of(self, table: str, value: Any) -> int:
        return self.spec(table).shard_of(value)

    # ------------------------------------------------------------ liveness
    def mark_down(self, node: int) -> None:
        """Record a node loss; routing skips it until :meth:`mark_up`."""
        self._down.add(node)

    def mark_up(self, node: int) -> None:
        self._down.discard(node)

    @property
    def down_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._down))

    def is_down(self, node: int) -> bool:
        return node in self._down

    # ------------------------------------------------------------- routing
    def nodes_for(self, shard: int, include_down: bool = False) -> List[int]:
        """The nodes holding a shard, primary first, dead nodes filtered.

        Raises :class:`ShardUnavailableError` when every copy is on a down
        node — the caller surfaces that as a query failure rather than
        hanging on an RPC that can never answer.
        """
        nodes = self.replica_map.nodes_for(shard)
        if include_down:
            return nodes
        alive = [n for n in nodes if n not in self._down]
        if not alive:
            raise ShardUnavailableError(
                "every copy of shard %d is down (nodes %r)" % (shard, nodes))
        return alive

    def primary_for(self, shard: int) -> int:
        """The first *alive* copy holder (the acting primary)."""
        return self.nodes_for(shard)[0]

    def placement(self) -> Dict[int, List[int]]:
        """Shard → copy-holder nodes (includes down nodes; for reporting)."""
        return {shard: self.replica_map.nodes_for(shard)
                for shard in range(self.replica_map.num_shards)}
