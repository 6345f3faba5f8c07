"""Aggregation pushdown: the ScanAggregate SSDlet (extension feature)."""

import pytest

from repro.db.executor import AggPlan, ExecutionMode
from repro.db.planner import create_engine
from repro.db.sql import run_sql
from repro.testing.differential import rows_match

Q6_SQL = """
    SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n,
           AVG(l_quantity) AS avg_qty, MIN(l_shipdate) AS lo,
           MAX(l_shipdate) AS hi
    FROM lineitem
    WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31'
"""

GROUPED_SQL = """
    SELECT l_shipmode, COUNT(*) AS n, SUM(l_quantity) AS qty
    FROM lineitem
    WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31'
    GROUP BY l_shipmode ORDER BY l_shipmode
"""


def test_supported_kinds():
    assert AggPlan([], [("a", "sum", None), ("b", "avg", None),
                        ("c", "min", None), ("d", "max", None),
                        ("e", "count", None)]).device_ok
    assert not AggPlan([], [("u", "count_distinct", None)]).device_ok


def test_global_aggregates_match_host(tpch_engines):
    conv, biscuit = tpch_engines
    conv_rel, _ = run_sql(conv, Q6_SQL)
    biscuit_rel, _ = run_sql(biscuit, Q6_SQL)
    assert biscuit.ndp_scans == 1
    assert rows_match(conv_rel.rows, biscuit_rel.rows)


def test_grouped_aggregates_match_host(tpch_engines):
    conv, biscuit = tpch_engines
    conv_rel, _ = run_sql(conv, GROUPED_SQL)
    biscuit_rel, _ = run_sql(biscuit, GROUPED_SQL)
    assert conv_rel.rows == biscuit_rel.rows


def test_pushdown_ships_almost_nothing(tpch_system):
    from repro.db.planner import create_engine as mk

    system, db = tpch_system
    with_push = mk(system, db, ExecutionMode.BISCUIT)
    without_push = mk(system, db, ExecutionMode.BISCUIT)
    without_push.config.ndp_pushdown_aggregate = False
    run_sql(with_push, Q6_SQL)
    run_sql(without_push, Q6_SQL)
    assert with_push.ndp_result_bytes < without_push.ndp_result_bytes / 20


def test_pushdown_not_slower(tpch_engines):
    _, biscuit = tpch_engines
    _, with_push_s = run_sql(biscuit, Q6_SQL)
    biscuit.config.ndp_pushdown_aggregate = False
    try:
        _, without_push_s = run_sql(biscuit, Q6_SQL)
    finally:
        biscuit.config.ndp_pushdown_aggregate = True
    # At the tiny test scale the fixed setup costs dominate both paths;
    # pushdown must at least be in the same ballpark (its real win — the
    # result-byte reduction — is asserted above).
    assert with_push_s <= without_push_s * 1.2


def test_software_scan_slower_than_matcher(tpch_engines):
    """ScanAggregate pays the same device software-scan charge ScanFilter
    does (tests/db/test_planner_ndp.py has the filter twin)."""
    _, biscuit = tpch_engines
    statement = """
        SELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem
        WHERE l_shipdate = '1995-01-17'
    """
    rel, with_matcher_s = run_sql(biscuit, statement)
    assert biscuit.ndp_scans == 1
    biscuit.config.ndp_use_matcher = False
    try:
        software_rel, without_matcher_s = run_sql(biscuit, statement)
    finally:
        biscuit.config.ndp_use_matcher = True
    assert biscuit.ndp_scans == 1  # still pushed down, just without the IP
    assert software_rel.rows == rel.rows
    assert without_matcher_s > 2 * with_matcher_s


def test_count_distinct_falls_back(tpch_engines):
    conv, biscuit = tpch_engines
    statement = """
        SELECT COUNT(DISTINCT l_suppkey) AS suppliers FROM lineitem
        WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31'
    """
    conv_rel, _ = run_sql(conv, statement)
    biscuit_rel, _ = run_sql(biscuit, statement)
    # Falls back to the row-shipping scan (still offloaded) — same answer.
    assert conv_rel.rows == biscuit_rel.rows


def test_join_queries_not_pushed_down(tpch_engines):
    """Aggregates over joins keep the regular path (and stay correct)."""
    conv, biscuit = tpch_engines
    statement = """
        SELECT SUM(l_extendedprice) AS s
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate BETWEEN '1995-09-01' AND '1995-09-30'
    """
    conv_rel, _ = run_sql(conv, statement)
    biscuit_rel, _ = run_sql(biscuit, statement)
    assert rows_match(conv_rel.rows, biscuit_rel.rows)


def test_empty_result_group(tpch_engines):
    conv, biscuit = tpch_engines
    statement = """
        SELECT COUNT(*) AS n FROM lineitem
        WHERE l_shipdate BETWEEN '2030-01-01' AND '2030-12-31'
    """
    conv_rel, _ = run_sql(conv, statement)
    biscuit_rel, _ = run_sql(biscuit, statement)
    # Global aggregate over zero rows: both engines agree (no groups).
    assert conv_rel.rows == biscuit_rel.rows
