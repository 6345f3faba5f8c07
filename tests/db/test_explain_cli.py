"""EXPLAIN output and the MiniDB command line."""

import re

import pytest

from repro.db.executor import Engine, Rel
from repro.db.sql import run_explain, run_sql

FIG8 = "SELECT l_orderkey FROM lineitem WHERE l_shipdate = '1995-01-17'"
Q14ISH = """
    SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE l_shipdate BETWEEN '1995-09-01' AND '1995-09-30'
"""


def test_explain_conv_shows_seqscan(tpch_engines):
    conv, _ = tpch_engines
    plan = run_explain(conv, FIG8)
    assert "conv engine" in plan
    assert "SeqScan" in plan
    assert "NDPScan" not in plan


def test_explain_biscuit_shows_offload(tpch_engines):
    _, biscuit = tpch_engines
    plan = run_explain(biscuit, FIG8)
    assert "NDPScan" in plan
    assert "selectivity" in plan


def test_explain_join_orders_differ(tpch_engines):
    conv, biscuit = tpch_engines
    def steps(engine):  # the plan without the kernel source under each step
        return [line for line in run_explain(engine, Q14ISH).splitlines()
                if not line.startswith(" " * 8)]

    conv_plan, biscuit_plan = steps(conv), steps(biscuit)
    assert "part" in conv_plan[1]  # smallest table drives Conv
    assert "lineitem" in biscuit_plan[1]  # the NDP scan drives Biscuit
    assert "IndexProbe" in conv_plan[2]


def test_explain_rejection_reason(tpch_engines):
    _, biscuit = tpch_engines
    plan = run_explain(
        biscuit, "SELECT o_orderkey FROM orders WHERE o_totalprice > 1000"
    )
    assert "no offload" in plan


def test_explain_aggregate_and_order(tpch_engines):
    conv, _ = tpch_engines
    plan = run_explain(conv, """
        SELECT l_shipmode, COUNT(*) AS n FROM lineitem
        GROUP BY l_shipmode ORDER BY n DESC LIMIT 3
    """)
    assert "aggregate by [l_shipmode]" in plan
    assert "order by n DESC limit 3" in plan


# Joins where an indexed inner table is hash-joined after all (the driving
# relation is too large to probe), and where the first connected table is
# not the next one in join order.
EXECUTED = [
    "SELECT c_mktsegment, COUNT(*) AS n FROM customer JOIN orders "
    "ON c_custkey = o_custkey GROUP BY c_mktsegment",
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders JOIN lineitem "
    "ON o_orderkey = l_orderkey WHERE l_shipdate < '1993-01-01' GROUP BY o_orderpriority",
    "SELECT n_name, COUNT(*) AS n FROM nation JOIN supplier ON n_nationkey = s_nationkey "
    "JOIN customer ON n_nationkey = c_nationkey GROUP BY n_name",
    "SELECT p_brand, SUM(l_quantity) AS q FROM part JOIN lineitem "
    "ON p_partkey = l_partkey GROUP BY p_brand",
    "SELECT o_orderstatus, SUM(l_extendedprice) AS r FROM orders JOIN lineitem "
    "ON o_orderkey = l_orderkey GROUP BY o_orderstatus",
    "SELECT r_name, COUNT(*) AS n FROM region JOIN nation ON r_regionkey = n_regionkey "
    "JOIN customer ON n_nationkey = c_nationkey JOIN orders ON c_custkey = o_custkey "
    "GROUP BY r_name",
    "SELECT s_name, COUNT(*) AS n FROM supplier JOIN lineitem ON s_suppkey = l_suppkey "
    "WHERE l_shipdate = '1995-01-17' GROUP BY s_name",
    "SELECT c_name, COUNT(*) AS n FROM customer JOIN orders ON c_custkey = o_custkey "
    "JOIN lineitem ON o_orderkey = l_orderkey WHERE l_shipdate = '1995-01-17' "
    "GROUP BY c_name",
]


def explained_methods(plan):
    """{table: (method, key)} from EXPLAIN's table lines."""
    methods = {}
    for match in re.finditer(r"^  (?:drive|join)\s+(\w+)\s+(\S+)", plan, re.M):
        table, access = match.groups()
        probe = re.fullmatch(r"IndexProbe\((\w+)\)", access)
        if probe:
            methods[table] = ("IndexProbe", probe.group(1))
        elif access.endswith("+HashJoin"):
            methods[table] = ("HashJoin", None)
        else:
            methods[table] = ("Scan", None)
    return methods


@pytest.mark.parametrize("mode", ["conv", "biscuit"])
@pytest.mark.parametrize("statement", EXECUTED)
def test_explain_is_the_executed_plan(monkeypatch, tpch_engines, statement, mode):
    engine = tpch_engines[mode == "biscuit"]
    explained = explained_methods(run_explain(engine, statement))

    owner = {column: name for name, table in engine.db.tables.items()
             for column in table.schema.column_names()}
    ran = {}
    real_fetch, real_index, real_hash = (
        Engine.fetch, Engine._index_join, Engine._hash_join)

    def fetch(self, ref):
        if not isinstance(ref, Rel):
            ran.setdefault(ref.name, ("Scan", None))
        return (yield from real_fetch(self, ref))

    def index_join(self, driving, inner_ref, driving_key, inner_key, cols):
        ran[inner_ref.name] = ("IndexProbe", inner_key)
        return (yield from real_index(self, driving, inner_ref, driving_key,
                                      inner_key, cols))

    def hash_join(self, left, right, left_key, right_key, cols):
        ran[owner[right_key]] = ("HashJoin", None)
        return (yield from real_hash(self, left, right, left_key, right_key, cols))

    monkeypatch.setattr(Engine, "fetch", fetch)
    monkeypatch.setattr(Engine, "_index_join", index_join)
    monkeypatch.setattr(Engine, "_hash_join", hash_join)
    run_sql(engine, statement)
    assert explained == ran


# --------------------------------------------------------------------- CLI
def run_cli(args, capsys):
    from repro.db.__main__ import main

    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_sql(capsys):
    code, out = run_cli(
        ["SELECT COUNT(*) AS n FROM region", "--sf", "0.002", "--mode", "conv"],
        capsys,
    )
    assert code == 0
    assert "conv engine" in out
    assert "1 rows" in out


def test_cli_explain(capsys):
    code, out = run_cli(
        [FIG8, "--sf", "0.002", "--mode", "biscuit", "--explain"], capsys
    )
    assert code == 0
    assert "plan (biscuit engine)" in out


def test_cli_tpch_query(capsys):
    code, out = run_cli(["--tpch", "6", "--sf", "0.002", "--mode", "both"], capsys)
    assert code == 0
    assert "speed-up" in out


def test_cli_renders_dates(capsys):
    code, out = run_cli(
        ["SELECT o_orderdate FROM orders LIMIT 1", "--sf", "0.002",
         "--mode", "conv"],
        capsys,
    )
    assert code == 0
    assert "19" in out and "-" in out  # a rendered YYYY-MM-DD date


def test_cli_argument_validation():
    from repro.db.__main__ import main

    with pytest.raises(SystemExit):
        main([])  # neither SQL nor --tpch
    with pytest.raises(SystemExit):
        main(["SELECT 1 FROM x", "--tpch", "3"])  # both
    with pytest.raises(SystemExit):
        main(["--tpch", "99"])
