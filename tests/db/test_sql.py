"""SQL front end: parsing, binding, execution, NDP pushdown."""

import math

import pytest

from repro.db.catalog import d
from repro.db.sql import SqlError, parse, run_sql


# ------------------------------------------------------------------ parsing
def test_parse_simple_select():
    query = parse("SELECT a, b FROM t WHERE a = 5")
    assert [item.name for item in query.items] == ["a", "b"]
    assert query.tables == ["t"]
    assert query.where is not None


def test_parse_join_and_clauses():
    query = parse(
        "SELECT a FROM t JOIN u ON a = b WHERE c > 1 "
        "GROUP BY a HAVING a > 0 ORDER BY a DESC LIMIT 5"
    )
    assert query.tables == ["t", "u"]
    assert query.join_conditions == [("a", "b")]
    assert query.group_by == ["a"]
    assert query.having is not None
    assert query.order_by == [("a", True)]
    assert query.limit == 5


def test_parse_aggregates():
    query = parse("SELECT SUM(x) AS s, COUNT(*) AS n, AVG(x + 1) AS m FROM t")
    kinds = [(item.agg, item.name) for item in query.items]
    assert kinds == [("sum", "s"), ("count", "n"), ("avg", "m")]


def test_parse_count_distinct():
    query = parse("SELECT COUNT(DISTINCT x) AS u FROM t")
    assert query.items[0].distinct


def test_parse_string_escape():
    query = parse("SELECT a FROM t WHERE s = 'it''s'")
    assert query.where.right.value == "it's"


def test_parse_errors():
    with pytest.raises(SqlError):
        parse("SELECT FROM t")
    with pytest.raises(SqlError):
        parse("SELECT a FROM")
    with pytest.raises(SqlError):
        parse("SELECT a+1 FROM t")  # computed item needs AS
    with pytest.raises(SqlError):
        parse("SELECT a FROM t WHERE")
    with pytest.raises(SqlError):
        parse("SELECT a FROM t extra")
    with pytest.raises(SqlError):
        parse("SELECT a FROM t LIMIT 2.5")  # not a bare ValueError
    with pytest.raises(SqlError):
        parse("SELECT a FROM t LIMIT 1e3")


# ---------------------------------------------------------------- execution
def test_filter_and_projection(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT o_orderkey, o_totalprice FROM orders
        WHERE o_totalprice > 300000
    """)
    assert rel.columns == ["o_orderkey", "o_totalprice"]
    assert all(price > 300000 for _, price in rel.rows)
    assert len(rel) > 0


def test_date_literal_binding(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT o_orderkey, o_orderdate FROM orders
        WHERE o_orderdate = '1995-06-01'
    """)
    for _, when in rel.rows:
        assert when == d("1995-06-01")


def test_between_is_inclusive(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT l_shipdate FROM lineitem
        WHERE l_shipdate BETWEEN '1995-09-01' AND '1995-09-30'
    """)
    low, high = d("1995-09-01"), d("1995-09-30")
    assert rel.rows
    assert all(low <= row[0] <= high for row in rel.rows)


def test_computed_column(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS net
        FROM lineitem WHERE l_orderkey = 1
    """)
    assert rel.columns == ["l_orderkey", "net"]


def test_group_by_aggregate(tpch_engines, tpch_data):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag
    """)
    got = dict(rel.rows)
    expected = {}
    li = tpch_data["lineitem"]
    for row in li:
        expected[row[8]] = expected.get(row[8], 0) + 1
    assert got == expected


def test_order_and_limit(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT o_orderkey, o_totalprice FROM orders
        ORDER BY o_totalprice DESC LIMIT 3
    """)
    prices = [row[1] for row in rel.rows]
    assert prices == sorted(prices, reverse=True)
    assert len(prices) == 3


def test_having(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT o_custkey, COUNT(*) AS n FROM orders
        GROUP BY o_custkey HAVING n > 10
    """)
    assert all(row[1] > 10 for row in rel.rows)


def test_join_with_cross_table_where(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_sql(conv, """
        SELECT n_name, COUNT(*) AS suppliers
        FROM supplier JOIN nation ON s_nationkey = n_nationkey
        GROUP BY n_name ORDER BY suppliers DESC
    """)
    assert len(rel) > 0
    assert rel.columns == ["n_name", "suppliers"]


def test_join_condition_in_where(tpch_engines):
    conv, _ = tpch_engines
    joined, _ = run_sql(conv, """
        SELECT COUNT(*) AS n FROM supplier JOIN nation ON s_nationkey = n_nationkey
    """)
    via_where_tables, _ = run_sql(conv, """
        SELECT COUNT(*) AS n FROM supplier JOIN nation ON s_nationkey = n_nationkey
        WHERE s_acctbal > -10000
    """)
    assert joined.rows == via_where_tables.rows


def test_conv_biscuit_agree_and_ndp_fires(tpch_engines):
    conv, biscuit = tpch_engines
    statement = """
        SELECT l_orderkey, l_shipdate, l_linenumber
        FROM lineitem WHERE l_shipdate = '1995-01-17'
    """
    conv_rel, conv_s = run_sql(conv, statement)
    biscuit_rel, biscuit_s = run_sql(biscuit, statement)
    assert sorted(conv_rel.rows) == sorted(biscuit_rel.rows)
    assert biscuit.ndp_scans == 1  # the WHERE pushdown reached the planner
    assert biscuit_s < conv_s


def test_aggregate_results_match_across_engines(tpch_engines):
    conv, biscuit = tpch_engines
    statement = """
        SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate BETWEEN '1995-09-01' AND '1995-09-30'
          AND p_type LIKE 'PROMO%'
    """
    conv_rel, _ = run_sql(conv, statement)
    biscuit_rel, _ = run_sql(biscuit, statement)
    assert math.isclose(conv_rel.rows[0][0], biscuit_rel.rows[0][0], rel_tol=1e-9)


def test_unknown_table_rejected(tpch_engines):
    conv, _ = tpch_engines
    with pytest.raises(SqlError):
        run_sql(conv, "SELECT x FROM nowhere")


def test_unknown_column_rejected(tpch_engines):
    conv, _ = tpch_engines
    with pytest.raises(SqlError):
        run_sql(conv, "SELECT o_orderkey FROM orders WHERE no_such_col = 1")


def test_non_grouped_select_item_rejected(tpch_engines):
    conv, _ = tpch_engines
    with pytest.raises(SqlError):
        run_sql(conv, "SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY o_orderkey")


def test_order_by_must_be_output(tpch_engines):
    conv, _ = tpch_engines
    with pytest.raises(SqlError):
        run_sql(conv, "SELECT o_orderkey FROM orders ORDER BY o_totalprice")
