"""Query engine operators: scans, joins, aggregation, policies."""

import pytest

from repro.db.catalog import Column, TableSchema
from repro.db.executor import EngineConfig, ExecutionMode, Rel
from repro.db.expr import col, eq, gt, lt, mul
from repro.db.planner import create_engine
from repro.db.storage import Database
from repro.host.platform import System

USERS = TableSchema(
    "users",
    [Column("u_id", "int"), Column("u_team", "int"), Column("u_name", "str")],
    primary_key=("u_id",),
    indexes=("u_team",),
)
EVENTS = TableSchema(
    "events",
    [Column("e_id", "int"), Column("e_user", "int"), Column("e_value", "float")],
    primary_key=("e_id",),
    indexes=("e_user",),
)
TEAMS = TableSchema(
    "teams",
    [Column("t_id", "int"), Column("t_name", "str")],
    primary_key=("t_id",),
)

USER_ROWS = [(i, i % 5, "user-%d" % i) for i in range(100)]
EVENT_ROWS = [(i, i % 100, float(i % 13)) for i in range(600)]
TEAM_ROWS = [(i, "team-%d" % i) for i in range(5)]


@pytest.fixture
def engine():
    system = System()
    db = Database(system.fs)
    db.load_table(USERS, USER_ROWS)
    db.load_table(EVENTS, EVENT_ROWS)
    db.load_table(TEAMS, TEAM_ROWS)
    return create_engine(system, db, ExecutionMode.CONV)


def run(engine, fiber):
    return engine.system.run_fiber(fiber)


# -------------------------------------------------------------------- scans
def test_full_scan(engine):
    rel = run(engine, engine.fetch(engine.t("users")))
    assert len(rel) == 100
    assert rel.columns == ["u_id", "u_team", "u_name"]


def test_scan_with_filter_and_projection(engine):
    rel = run(engine, engine.fetch(
        engine.t("users", eq(col("u_team"), 2), ["u_id", "u_name"])
    ))
    assert len(rel) == 20
    assert rel.columns == ["u_id", "u_name"]
    assert all(row[0] % 5 == 2 for row in rel.rows)


def test_scan_counts_pages(engine):
    engine.begin_query()
    run(engine, engine.fetch(engine.t("events")))
    assert engine.host_pages_read == engine.db.table("events").num_pages


def test_scan_takes_simulated_time(engine):
    before = engine.system.sim.now
    run(engine, engine.fetch(engine.t("events")))
    assert engine.system.sim.now > before


# -------------------------------------------------------------------- joins
def expected_join():
    users = {u[0]: u for u in USER_ROWS}
    return sorted(
        (e[1], users[e[1]][1], e[2]) for e in EVENT_ROWS
    )


def test_index_join_rel_to_table(engine):
    events = run(engine, engine.fetch(engine.t("events", None, ["e_user", "e_value"])))
    joined = run(engine, engine.join(
        events, engine.t("users", None, ["u_id", "u_team"]), "e_user", "u_id",
    ))
    got = sorted((row[joined.position("u_id")], row[joined.position("u_team")],
                  row[joined.position("e_value")]) for row in joined.rows)
    assert got == expected_join()


def test_hash_join_rel_to_rel(engine):
    events = run(engine, engine.fetch(engine.t("events", None, ["e_user", "e_value"])))
    users = run(engine, engine.fetch(engine.t("users", None, ["u_id", "u_team"])))
    joined = run(engine, engine.join(events, users, "e_user", "u_id"))
    got = sorted((row[joined.position("u_id")], row[joined.position("u_team")],
                  row[joined.position("e_value")]) for row in joined.rows)
    assert got == expected_join()


def test_join_with_inner_predicate(engine):
    events = run(engine, engine.fetch(engine.t("events", None, ["e_user"])))
    joined = run(engine, engine.join(
        events, engine.t("users", eq(col("u_team"), 0), ["u_id", "u_team"]),
        "e_user", "u_id",
    ))
    assert len(joined) == 120  # 20 team-0 users x 6 events each
    assert all(row[joined.position("u_team")] == 0 for row in joined.rows)


def test_join_output_column_selection(engine):
    events = run(engine, engine.fetch(engine.t("events", None, ["e_user", "e_value"])))
    joined = run(engine, engine.join(
        events, engine.t("users", None, ["u_id", "u_name"]),
        "e_user", "u_id", cols=["u_name", "e_value"],
    ))
    assert joined.columns == ["u_name", "e_value"]


def test_conv_two_table_join_drives_smaller(engine):
    joined = run(engine, engine.join(
        engine.t("users", None, ["u_id", "u_team"]),
        engine.t("events", None, ["e_user", "e_value"]),
        "u_id", "e_user",
    ))
    assert len(joined) == 600


def test_join_and_multi_join_pick_the_same_driver():
    # Narrow-and-long against wide-and-short: fewer pages says "narrow",
    # fewer rows says "wide".  Both entry points follow one rule (rows).
    narrow = TableSchema("narrow", [Column("n_id", "int"), Column("n_key", "int")],
                         primary_key=("n_id",))
    wide = TableSchema("wide", [Column("w_key", "int"), Column("w_pad", "str")],
                       primary_key=("w_key",))
    system = System()
    db = Database(system.fs)
    db.load_table(narrow, [(i, i % 40) for i in range(3000)])
    db.load_table(wide, [(k, "x" * 3000) for k in range(40)])
    assert db.table("narrow").num_pages < db.table("wide").num_pages
    assert db.table("wide").num_rows < db.table("narrow").num_rows
    engine = create_engine(system, db, ExecutionMode.CONV)
    joined = run(engine, engine.join(
        engine.t("narrow"), engine.t("wide"), "n_key", "w_key"))
    multi = run(engine, engine.multi_join(
        [engine.t("narrow"), engine.t("wide")], [("n_key", "w_key")]))
    # The driving table's columns come first in the output.
    assert joined.columns == multi.columns == ["w_key", "w_pad", "n_id", "n_key"]
    assert len(joined) == len(multi) == 3000


def test_multi_join_three_tables(engine):
    joined = run(engine, engine.multi_join(
        [
            engine.t("teams", None, ["t_id", "t_name"]),
            engine.t("users", None, ["u_id", "u_team"]),
            engine.t("events", None, ["e_user", "e_value"]),
        ],
        [("t_id", "u_team"), ("u_id", "e_user")],
    ))
    assert len(joined) == 600
    assert "t_name" in joined.columns


def test_multi_join_extra_condition_as_filter(engine):
    joined = run(engine, engine.multi_join(
        [
            engine.t("users", None, ["u_id", "u_team"]),
            engine.t("events", None, ["e_id", "e_user"]),
        ],
        [("u_id", "e_user"), ("u_team", "e_id")],  # second pair filters
    ))
    for row in joined.rows:
        assert row[joined.position("u_team")] == row[joined.position("e_id")]


def test_multi_join_needs_two_relations(engine):
    with pytest.raises(ValueError):
        run(engine, engine.multi_join([engine.t("users")], []))


def test_inl_scan_switch_uses_hash_for_hot_probes(engine):
    """When estimated probe pages dwarf a scan, the engine must scan."""
    engine.config.inl_scan_factor = 0.001
    engine.begin_query()
    events = run(engine, engine.fetch(engine.t("events", None, ["e_user"])))
    pages_after_scan = engine.host_pages_read
    run(engine, engine.join(events, engine.t("users"), "e_user", "u_id"))
    # Hash path: inner read once sequentially, no 600 probes.
    users_pages = engine.db.table("users").num_pages
    assert engine.host_pages_read <= pages_after_scan + users_pages


# -------------------------------------------------------------- operators
def test_filter_and_project(engine):
    rel = Rel(["x", "y"], [(1, 2.0), (3, 4.0), (5, 6.0)])
    kept = run(engine, engine.filter(rel, gt(col("x"), 2)))
    assert kept.rows == [(3, 4.0), (5, 6.0)]
    projected = run(engine, engine.project(kept, [("double", mul(col("y"), 2))]))
    assert projected.rows == [(8.0,), (12.0,)]


def test_aggregate_kinds(engine):
    rel = Rel(["g", "v"], [(1, 2.0), (1, 4.0), (2, 10.0)])
    agg = run(engine, engine.aggregate(rel, ["g"], [
        ("total", "sum", col("v")),
        ("n", "count", None),
        ("mean", "avg", col("v")),
        ("lo", "min", col("v")),
        ("hi", "max", col("v")),
        ("uniq", "count_distinct", col("v")),
    ]))
    by_group = {row[0]: row[1:] for row in agg.rows}
    assert by_group[1] == (6.0, 2, 3.0, 2.0, 4.0, 2)
    assert by_group[2] == (10.0, 1, 10.0, 10.0, 10.0, 1)


def test_global_aggregate(engine):
    rel = Rel(["v"], [(1.0,), (2.0,), (3.0,)])
    agg = run(engine, engine.aggregate(rel, [], [("s", "sum", col("v"))]))
    assert agg.rows == [(6.0,)]


def test_sort_and_limit(engine):
    rel = Rel(["a", "b"], [(1, "x"), (3, "y"), (2, "x")])
    ordered = run(engine, engine.sort(rel, [("b", False), ("a", True)]))
    assert ordered.rows == [(2, "x"), (1, "x"), (3, "y")]
    top = run(engine, engine.sort(rel, [("a", True)], limit=2))
    assert top.rows == [(3, "y"), (2, "x")]


def test_distinct(engine):
    rel = Rel(["a", "b"], [(1, "x"), (1, "x"), (2, "y")])
    assert len(run(engine, engine.distinct(rel)).rows) == 2
    only_a = run(engine, engine.distinct(rel, ["a"]))
    assert sorted(only_a.rows) == [(1,), (2,)]


def test_semi_and_anti_join(engine):
    rel = Rel(["k"], [(1,), (2,), (3,)])
    keys = Rel(["j"], [(2,), (3,), (9,)])
    kept = run(engine, engine.semi_join(rel, "k", keys, "j"))
    assert sorted(kept.rows) == [(2,), (3,)]
    dropped = run(engine, engine.semi_join(rel, "k", keys, "j", anti=True))
    assert dropped.rows == [(1,)]


def test_rename(engine):
    rel = Rel(["a", "b"], [(1, 2)])
    renamed = engine.rename(rel, {"a": "alpha"})
    assert renamed.columns == ["alpha", "b"]
    assert renamed.rows is rel.rows


# ------------------------------------------------------------- buffer pool
def test_buffer_pool_caches_probe_pages(engine):
    engine.begin_query()
    events = run(engine, engine.fetch(
        engine.t("events", lt(col("e_id"), 25), ["e_user"])
    ))
    assert len(events) == 25  # few probes: the engine keeps INL
    scan_pages = engine.host_pages_read
    run(engine, engine.join(events, engine.t("users"), "e_user", "u_id"))
    probe_reads = engine.host_pages_read - scan_pages
    # 25 probes into a table whose pages all fit in the pool: each distinct
    # page misses once, the rest hit.
    assert probe_reads <= engine.db.table("users").num_pages
    assert engine.pool.hits > 0


def test_begin_query_cold_clears_pool(engine):
    engine.pool.touch(("users", 0))
    engine.begin_query(cold=True)
    assert not engine.pool.touch(("users", 0))
