"""One interpreter, two sites: every statement through ``run_sql`` on one
BISCUIT device and through ``ClusterExecutor.run_sql`` on a fleet.

Both entry points end in :func:`repro.db.sql.execute_statement`; the sites
differ only in where rows come from and which CPU pays.  So the answers —
and the text of every binding error — must be the same.
"""

from dataclasses import replace

import pytest

from repro.cluster import ClusterExecutor, ShardedFleet
from repro.db.catalog import Column, TableSchema
from repro.db.executor import ExecutionMode
from repro.db.planner import create_engine
from repro.db.sql import SqlError, run_sql
from repro.db.storage import Database
from repro.host.platform import System
from repro.testing.differential import force_offload_config, rows_match

T = TableSchema("t", [Column("id", "int"), Column("v", "int"),
                      Column("price", "float")])
T_ROWS = [(i, (i * 37) % 101, (i % 13) * 0.25) for i in range(6000)]
U = TableSchema("u", [Column("uid", "int"), Column("w", "int")])
U_ROWS = [(i, i % 5) for i in range(0, 6000, 40)]


@pytest.fixture(scope="module")
def sites():
    """(engine on one BISCUIT device, executor on a 3-node fleet), same rows,
    thresholds forced open so the tiny tables really offload."""
    system = System()
    db = Database(system.fs)
    db.load_table(T, T_ROWS)
    db.load_table(U, U_ROWS)
    engine = create_engine(system, db, ExecutionMode.BISCUIT,
                           force_offload_config())

    fleet = ShardedFleet(num_nodes=3, num_shards=3, replication=2,
                         engine_config=force_offload_config())
    fleet.load_sharded(T, T_ROWS, key="id", kind="hash")
    fleet.load_sharded(U, U_ROWS, key="uid", kind="hash")
    return engine, ClusterExecutor(fleet)


# (id, statement, how the two answers must agree)
#   set     — equal after canonical ordering (float sums to 1e-9)
#   ordered — equal as lists (the ORDER BY key is unique)
#   cut     — a bare LIMIT: which rows survive is the access path's business,
#             so: the same count, all drawn from the unlimited answer
PARITY = [
    ("plain-filter", "SELECT id, v FROM t WHERE v = 7", "set"),
    ("arithmetic-projection-as",
     "SELECT id, price * 2 + v AS score FROM t WHERE v = 7", "set"),
    ("group-by-having",
     "SELECT v, COUNT(*) AS n, SUM(price) AS total, AVG(id) AS mid "
     "FROM t WHERE v < 50 GROUP BY v HAVING n > 59", "set"),
    ("count-distinct-row-fetch-fallback",
     "SELECT COUNT(DISTINCT v) AS vs FROM t WHERE v < 50", "set"),
    ("order-by-plain-column-limit",
     "SELECT id, v FROM t WHERE v = 7 ORDER BY id DESC LIMIT 5", "ordered"),
    ("order-by-computed-alias-limit",
     "SELECT v, id * 3 AS triple FROM t WHERE v = 7 "
     "ORDER BY triple DESC LIMIT 5", "ordered"),
    ("bare-limit", "SELECT id FROM t WHERE v = 7 LIMIT 4", "cut"),
]


@pytest.mark.parametrize("statement,agree", [row[1:] for row in PARITY],
                         ids=[row[0] for row in PARITY])
def test_same_answer_on_both_sites(sites, statement, agree):
    engine, executor = sites
    single, _ = run_sql(engine, statement)
    fleet, _ = executor.run_sql(statement)
    assert single.columns == fleet.columns
    if agree == "ordered":
        assert single.rows == fleet.rows
    elif agree == "set":
        assert rows_match(single.rows, fleet.rows)
    else:
        everything, _ = run_sql(engine, statement.split(" LIMIT ")[0])
        assert len(single.rows) == len(fleet.rows) == 4
        assert set(single.rows) | set(fleet.rows) <= set(everything.rows)
    assert single.rows  # no parity by both being empty
    assert engine.ndp_scans and executor.fleet.ndp_scans()  # really offloaded


def test_result_types_do_not_depend_on_where_the_aggregate_folded():
    """Offload is invisible in the answer, down to ``type()``: the same rows
    from a host fold, a device fold, a device scan folded on the host, and
    shard partials merged at a coordinator.  (Every float here is a multiple
    of 0.25, so sums are exact in any association order.)"""
    statement = ("SELECT v, SUM(id) AS s, COUNT(*) AS n, AVG(id) AS mid, "
                 "MIN(id) AS lo, MAX(price) AS hi, SUM(price) AS total "
                 "FROM t WHERE v < 50 GROUP BY v")
    config = force_offload_config()
    system = System()
    db = Database(system.fs)
    db.load_table(T, T_ROWS)
    conv = create_engine(system, db, ExecutionMode.CONV, config)
    pushed = create_engine(system, db, ExecutionMode.BISCUIT, config)
    scan_only = create_engine(system, db, ExecutionMode.BISCUIT,
                              replace(config, ndp_pushdown_aggregate=False))
    fleet = ShardedFleet(num_nodes=4, engine_config=config)
    fleet.load_sharded(T, T_ROWS, key="id", kind="hash")

    def typed(rel):
        return sorted([(type(value).__name__, value) for value in row]
                      for row in rel.rows)

    want = typed(run_sql(conv, statement)[0])
    assert want[0][:2] == [("int", 0), ("int", 178770)]  # an int SUM is an int
    for engine in (pushed, scan_only):
        assert typed(run_sql(engine, statement)[0]) == want
        assert engine.ndp_scans == 1
    # The device fold ships states, the scan-only engine every survivor.
    assert pushed.ndp_result_bytes * 10 < scan_only.ndp_result_bytes
    assert typed(ClusterExecutor(fleet).run_sql(statement)[0]) == want
    assert fleet.ndp_scans()


def test_order_by_is_pushed_to_the_shards_only_for_plain_columns(sites):
    _, executor = sites
    merged = {}
    for name, statement, _ in PARITY:
        before = executor.merged_rows
        executor.run_sql(statement)
        merged[name] = executor.merged_rows - before
    shards = executor.fleet.num_shards
    # Shard-presorted top-k: at most LIMIT rows per shard reach the merge.
    assert merged["order-by-plain-column-limit"] <= 5 * shards
    # A computed key is sorted at the coordinator over every matching row.
    assert merged["order-by-computed-alias-limit"] == merged["plain-filter"]
    assert merged["plain-filter"] > 5 * shards


@pytest.mark.parametrize("statement,fragment", [
    ("SELECT SUM(DISTINCT v) AS s FROM t", "DISTINCT only supported"),
    ("SELECT id, COUNT(*) AS n FROM t GROUP BY v", "must appear in GROUP BY"),
    ("SELECT id FROM t WHERE v = 7 ORDER BY v", "is not an output column"),
], ids=["distinct-outside-count", "non-grouped-select-item",
        "order-by-non-output-column"])
def test_same_error_text_on_both_sites(sites, statement, fragment):
    engine, executor = sites
    with pytest.raises(SqlError) as single:
        run_sql(engine, statement)
    with pytest.raises(SqlError) as fleet:
        executor.run_sql(statement)
    assert fragment in str(single.value)
    assert str(single.value) == str(fleet.value)


def test_fleet_turns_a_two_table_statement_away(sites):
    engine, executor = sites
    statement = "SELECT id, w FROM t JOIN u ON id = uid WHERE v = 7"
    joined, _ = run_sql(engine, statement)
    assert joined.rows  # one device joins; the fleet has no Exchange yet
    with pytest.raises(SqlError) as error:
        executor.run_sql(statement)
    assert str(error.value) == (
        "cluster scatter-gather is single-table; got 2 tables")


# A float key holding -0.0 beside 0.0: the column and ``==`` see one value.
P = TableSchema("p", [Column("pid", "int"), Column("price", "float")])
P_ROWS = [(i, -0.0 if i % 26 == 13 else (i % 13) * 0.25) for i in range(3000)]


@pytest.fixture(scope="module")
def keyed():
    """The unsharded engine and a 4-shard fleet hash-partitioned on an int
    key (``t.id``) and on a float key (``p.price``)."""
    system = System()
    db = Database(system.fs)
    db.load_table(T, T_ROWS)
    db.load_table(P, P_ROWS)
    config = force_offload_config()
    engine = create_engine(system, db, ExecutionMode.CONV, config)
    fleet = ShardedFleet(num_nodes=2, num_shards=4, replication=2,
                         engine_config=config)
    fleet.load_sharded(T, T_ROWS, key="id", kind="hash")
    fleet.load_sharded(P, P_ROWS, key="price", kind="hash")
    return engine, ClusterExecutor(fleet)


@pytest.mark.parametrize("table, where, values", [
    ("t", "id = 17", 1),
    ("t", "id = 17.0", 1),
    ("t", "id IN (17, 4000)", 2),
    ("t", "id IN (17.0, 4000.0)", 2),
    ("p", "price = 1", 1),
    ("p", "price = 1.0", 1),
    ("p", "price = 0", 1),
    ("p", "price = 0.0", 1),
    ("p", "price IN (0, 2)", 2),
    ("p", "price IN (0.5, 2.75)", 2),
])
def test_hash_pruning_hashes_the_stored_key(keyed, table, where, values):
    """Pruning hashes a literal as the key column stores it: ``5`` against a
    float key is ``5.0``, ``17.0`` against an int key is ``17``, and the
    rows stored as ``-0.0`` live where ``0`` hashes."""
    engine, executor = keyed
    statement = "SELECT count(*) AS n FROM %s WHERE %s" % (table, where)
    want, _ = run_sql(engine, statement)
    before = executor.shard_rpcs
    got, _ = executor.run_sql(statement)
    assert got.rows == want.rows and want.rows[0][0] > 0
    assert executor.shard_rpcs - before <= values  # really pruned
