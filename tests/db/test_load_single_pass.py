"""Single-pass table load: indexes built while packing, shards packed once.

The reference index here is rebuilt the way ``TableStorage`` used to build
it — by decoding every installed page through ``Database.read_page_rows`` —
and must equal the pack-time index, key insertion order included.
"""

import random

import pytest

from repro.cluster import ShardedFleet, shard_table_name
from repro.db.catalog import Column, TableSchema
from repro.db.storage import Database, pack_table
from repro.host.platform import System
from repro.testing.strategies import gen_table

SEEDS = range(12)


def index_from_pages(db, storage, column):
    position = storage.schema.position(column)
    index = {}
    for page_no in range(storage.num_pages):
        for row in db.read_page_rows(storage, page_no):
            pages = index.setdefault(row[position], [])
            if not pages or pages[-1] != page_no:
                pages.append(page_no)
    return index


def assert_indexes_match_pages(db, storage):
    declared = storage.schema.primary_key + storage.schema.indexes
    assert set(storage.indexes) == set(declared)
    for column in declared:
        reference = index_from_pages(db, storage, column)
        built = storage.indexes[column]
        assert built == reference, column
        assert list(built) == list(reference), column
        for key, reference_key in zip(built, reference):
            assert type(key) is type(reference_key), column


def indexed_everywhere(schema):
    names = tuple(schema.column_names())
    return TableSchema(schema.name, schema.columns,
                       primary_key=names[:1], indexes=names[1:])


@pytest.mark.parametrize("seed", SEEDS)
def test_pack_time_index_equals_index_rebuilt_from_pages(seed):
    schema, rows = gen_table(random.Random(seed))
    schema = indexed_everywhere(schema)
    db = Database(System().fs)
    storage = db.load_table(schema, rows)
    assert_indexes_match_pages(db, storage)


def test_every_key_type_with_duplicates_spanning_pages():
    schema = TableSchema(
        "k",
        [Column("i", "int"), Column("d", "date"), Column("f", "float"),
         Column("s", "str"), Column("pad", "str")],
        primary_key=("i",), indexes=("d", "f", "s"),
    )
    # ~600-byte rows: six to a page, so each of the few distinct keys
    # recurs on many pages, in runs and scattered.
    rows = [(n % 5, 9000 + n % 3, (n % 4) * 0.25, "key-%d" % (n // 40),
             "x" * 560) for n in range(300)]
    db = Database(System().fs)
    storage = db.load_table(schema, rows)
    assert storage.num_pages >= 40
    assert max(len(pages) for pages in storage.indexes["i"].values()) > 1
    assert max(len(pages) for pages in storage.indexes["s"].values()) > 1
    assert_indexes_match_pages(db, storage)


def test_keys_are_normalised_as_the_codec_stores_them():
    schema = TableSchema(
        "n", [Column("i", "int"), Column("f", "float"), Column("s", "str")],
        primary_key=("i",), indexes=("f", "s"))
    # The codec stores int(3.9) == 3, float(2) == 2.0 and str(17) == "17".
    rows = [(3.9, 2, 17), (True, 0.5, "a"), (3, 2.0, "17")]
    db = Database(System().fs)
    storage = db.load_table(schema, rows)
    assert storage.indexes["i"] == {3: [0], 1: [0]}
    assert list(storage.indexes["s"]) == ["17", "a"]
    assert_indexes_match_pages(db, storage)


def test_empty_table_has_empty_indexes():
    schema = TableSchema("e", [Column("a", "int"), Column("b", "str")],
                         primary_key=("a",), indexes=("b",))
    db = Database(System().fs)
    storage = db.load_table(schema, [])
    assert storage.num_rows == 0
    assert storage.num_pages == 0
    assert storage.indexes == {"a": {}, "b": {}}
    assert storage.index_pages("a", 1) == []
    assert storage.index_pages_per_key("b") == 1.0
    assert_indexes_match_pages(db, storage)


def test_install_rejects_a_table_packed_for_another_page_size():
    schema = TableSchema("p", [Column("a", "int")])
    db = Database(System().fs)
    packed = pack_table(schema, [(1,)], db.fs.page_size * 2)
    with pytest.raises(ValueError):
        db.install_table(packed)


def heap_bytes(db, storage):
    return b"".join(db.fs.page_content(storage.inode, page_no)
                    for page_no in range(storage.num_pages))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shard_installed_on_two_replicas_equals_two_independent_loads(seed):
    schema, rows = gen_table(random.Random(seed))
    schema = indexed_everywhere(schema)
    fleet = ShardedFleet(num_nodes=3, num_shards=3, replication=2)
    spec = fleet.load_sharded(schema, rows, key="c0", kind="hash")
    parts = spec.partition_rows(rows, schema.position("c0"))

    for shard, shard_rows in enumerate(parts):
        name = shard_table_name(schema.name, shard)
        holders = fleet.replica_map.nodes_for(shard)
        assert len(holders) == 2
        for node_index in holders:
            # An independent pack + install of the same rows on a fresh device.
            reference_db = Database(System().fs)
            reference = reference_db.load_table(schema, shard_rows, name=name)
            db = fleet.databases[node_index]
            storage = db.tables[name]
            assert storage.num_rows == reference.num_rows == len(shard_rows)
            assert storage.path == reference.path
            assert heap_bytes(db, storage) == heap_bytes(reference_db, reference)
            assert storage.indexes == reference.indexes
            for column in storage.indexes:
                assert list(storage.indexes[column]) == list(reference.indexes[column])
            assert_indexes_match_pages(db, storage)
