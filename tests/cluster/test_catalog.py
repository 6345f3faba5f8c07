"""Shard catalog unit coverage: routing, pruning, liveness, validation."""

import pytest

from repro.cluster.catalog import (
    PartitionSpec,
    ShardCatalog,
    ShardUnavailableError,
    shard_table_name,
    stable_shard_hash,
)
from repro.net.cluster import ReplicaMap


# ----------------------------------------------------------- partition specs
def test_hash_shard_of_is_stable_and_in_range():
    spec = PartitionSpec("t", "k", "hash", 8)
    for value in [0, 1, 17, -3, "alpha", b"raw", 2.5, ("a", 1)]:
        shard = spec.shard_of(value)
        assert 0 <= shard < 8
        assert shard == spec.shard_of(value)  # deterministic
        assert shard == stable_shard_hash(value) % 8


def test_range_shard_of_respects_bounds():
    spec = PartitionSpec("t", "k", "range", 4, bounds=(10, 20, 30))
    assert spec.shard_of(-5) == 0
    assert spec.shard_of(9) == 0
    assert spec.shard_of(10) == 1  # bound value goes right
    assert spec.shard_of(19) == 1
    assert spec.shard_of(25) == 2
    assert spec.shard_of(30) == 3
    assert spec.shard_of(1000) == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec("t", "k", "modulo", 4)
    with pytest.raises(ValueError):
        PartitionSpec("t", "k", "range", 4, bounds=(1, 2))  # needs 3
    with pytest.raises(ValueError):
        PartitionSpec("t", "k", "range", 4, bounds=(3, 2, 1))  # unsorted
    with pytest.raises(ValueError):
        PartitionSpec("t", "k", "hash", 4, bounds=(1, 2, 3))


def test_target_shards_eq_prunes_under_both_kinds():
    hashed = PartitionSpec("t", "k", "hash", 8)
    ranged = PartitionSpec("t", "k", "range", 4, bounds=(10, 20, 30))
    for spec in (hashed, ranged):
        targets = spec.target_shards(("eq", [15]))
        assert targets == [spec.shard_of(15)]
    # IN-lists visit exactly the owning shards, sorted and deduplicated.
    targets = hashed.target_shards(("eq", [1, 2, 3, 1]))
    assert targets == sorted(set(hashed.shard_of(v) for v in (1, 2, 3)))


def test_target_shards_range_prunes_only_under_range_kind():
    ranged = PartitionSpec("t", "k", "range", 4, bounds=(10, 20, 30))
    assert ranged.target_shards(("range", (12, 22, True, True))) == [1, 2]
    assert ranged.target_shards(("range", (None, 9, False, True))) == [0]
    assert ranged.target_shards(("range", (35, None, True, False))) == [3]
    # Hash partitioning destroys order: a range must scan everything.
    hashed = PartitionSpec("t", "k", "hash", 4)
    assert hashed.target_shards(("range", (12, 22, True, True))) == [0, 1, 2, 3]
    # No constraint scans everything under either kind.
    assert ranged.target_shards(None) == [0, 1, 2, 3]


def test_hash_coerces_through_the_key_type():
    floats = PartitionSpec("t", "k", "hash", 8, key_type=float)
    assert floats.shard_of(5) == floats.shard_of(5.0) \
        == stable_shard_hash(5.0) % 8
    assert floats.shard_of(-0.0) == floats.shard_of(0) \
        == floats.shard_of(0.0)
    ints = PartitionSpec("t", "k", "hash", 8, key_type=int)
    assert ints.shard_of(17.0) == ints.shard_of(17) \
        == stable_shard_hash(17) % 8
    # A literal the column cannot store matches no row: scan everything.
    assert ints.target_shards(("eq", ["x"])) == list(range(8))
    assert ints.target_shards(("eq", [float("inf")])) == list(range(8))
    # No key type (the KV store's bytes keys): hashed as given.
    assert PartitionSpec("kv", "key", "hash", 8).shard_of(b"k") \
        == stable_shard_hash(b"k") % 8


def test_partition_rows_covers_every_row_exactly_once():
    spec = PartitionSpec("t", "k", "hash", 4)
    rows = [(i, i * 2) for i in range(100)]
    parts = spec.partition_rows(rows, 0)
    assert sum(len(p) for p in parts) == 100
    assert sorted(row for part in parts for row in part) == rows
    for shard, part in enumerate(parts):
        assert all(spec.shard_of(row[0]) == shard for row in part)


def test_shard_table_name():
    assert shard_table_name("lineitem", 3) == "lineitem#s3"


# ------------------------------------------------------------------- catalog
def _catalog(num_shards=4, num_nodes=4, replication=2):
    return ShardCatalog(ReplicaMap(num_shards, num_nodes, replication))


def test_register_rejects_shard_count_mismatch():
    catalog = _catalog(num_shards=4)
    with pytest.raises(ValueError):
        catalog.register(PartitionSpec("t", "k", "hash", 8))
    spec = catalog.register(PartitionSpec("t", "k", "hash", 4))
    assert catalog.spec("t") is spec
    assert catalog.is_sharded("t") and not catalog.is_sharded("other")
    with pytest.raises(KeyError):
        catalog.spec("other")


def test_nodes_for_filters_down_nodes_primary_first():
    catalog = _catalog()
    placement = catalog.replica_map.nodes_for(0)
    assert catalog.nodes_for(0) == placement
    assert catalog.primary_for(0) == placement[0]

    catalog.mark_down(placement[0])
    assert catalog.nodes_for(0) == placement[1:]
    assert catalog.primary_for(0) == placement[1]  # replica promoted
    # The raw placement is immutable — include_down still shows the primary.
    assert catalog.nodes_for(0, include_down=True) == placement

    catalog.mark_up(placement[0])
    assert catalog.primary_for(0) == placement[0]  # old role resumed


def test_all_copies_down_raises_shard_unavailable():
    catalog = _catalog()
    placement = catalog.replica_map.nodes_for(1)
    for node in placement:
        catalog.mark_down(node)
    assert catalog.down_nodes == tuple(sorted(placement))
    with pytest.raises(ShardUnavailableError):
        catalog.nodes_for(1)


def test_placement_covers_every_shard_with_replication():
    catalog = _catalog(num_shards=8, num_nodes=4, replication=2)
    placement = catalog.placement()
    assert sorted(placement) == list(range(8))
    for nodes in placement.values():
        assert len(nodes) == 2
        assert len(set(nodes)) == 2  # copies on distinct nodes
