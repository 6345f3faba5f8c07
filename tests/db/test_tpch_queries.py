"""All 22 TPC-H queries: Conv/Biscuit equivalence + SQLite's answers."""

import pytest

from repro.db.executor import ExecutionMode
from repro.db.planner import create_engine
from repro.db.reference import REFERENCE_QUERIES, reference_result
from repro.db.tpch.datagen import generate_tables, load_tpch
from repro.db.tpch.queries import ALL_QUERIES, OFFLOADED_QUERIES, run_query
from repro.host.platform import System
from repro.testing.differential import rows_match


def test_registry_covers_all_22():
    assert sorted(ALL_QUERIES) == list(range(1, 23))
    assert OFFLOADED_QUERIES == [4, 5, 6, 10, 12, 14, 15, 20]


@pytest.mark.parametrize("number", sorted(ALL_QUERIES))
def test_conv_and_biscuit_agree(number, tpch_engines):
    """The NDP path must be invisible in the results of every query."""
    conv, biscuit = tpch_engines
    rel_conv, conv_s = run_query(conv, number)
    rel_biscuit, biscuit_s = run_query(biscuit, number)
    assert rel_conv.columns == rel_biscuit.columns
    assert rows_match(rel_conv.rows, rel_biscuit.rows), "Q%d differs" % number
    assert conv_s > 0 and biscuit_s > 0


@pytest.mark.parametrize("number", sorted(REFERENCE_QUERIES))
def test_engine_matches_independent_reference(number, tpch_engines, tpch_data):
    """Engine output equals SQLite's answer to the same query."""
    conv, _ = tpch_engines
    rel, _ = run_query(conv, number)
    expected = reference_result(number, tpch_data)
    assert rows_match(rel.rows, expected), "Q%d reference mismatch" % number


#: Scale factor and data seeds at which Q18 (sum(l_quantity) > 300) has a
#: qualifying order; at the shared fixture's scale its result is empty, and
#: an empty result agrees with any reference.
Q18_SCALE_FACTOR = 0.0015
Q18_NON_EMPTY_SEEDS = [104, 105]
#: The Q18 reference leaves out the two join-key columns (o_orderkey,
#: c_custkey) that q18's joins carry; the comparison is on the columns both
#: emit.
Q18_REFERENCE_COLUMNS = ("l_orderkey", "sum_qty", "o_custkey", "o_orderdate",
                         "o_totalprice", "c_name")


@pytest.mark.parametrize("seed", Q18_NON_EMPTY_SEEDS)
def test_q18_matches_reference_where_it_is_non_empty(seed):
    data = generate_tables(Q18_SCALE_FACTOR, seed)
    expected = reference_result(18, data)
    assert expected, "Q18 is empty at seed %d: the case checks nothing" % seed

    system = System()
    db = load_tpch(system.fs, Q18_SCALE_FACTOR, seed=seed)
    for mode in (ExecutionMode.CONV, ExecutionMode.BISCUIT):
        rel, _ = run_query(create_engine(system, db, mode), 18)
        assert rel.columns == [
            "l_orderkey", "sum_qty", "o_orderkey", "o_custkey", "o_orderdate",
            "o_totalprice", "c_custkey", "c_name"]
        keep = [rel.columns.index(name) for name in Q18_REFERENCE_COLUMNS]
        rows = [tuple(row[i] for i in keep) for row in rel.rows]
        assert rows_match(rows, expected), "Q18 reference mismatch (%s)" % mode
        # The dropped columns are the join keys: equal to their partners.
        for row in rel.rows:
            assert row[0] == row[2] and row[3] == row[6]


def test_offload_classification(tpch_engines):
    """Which queries actually use NDP at test scale.

    The fixed page-count cutoffs bite harder at tiny scale factors, so the
    offloaded set here must be a subset of the Fig. 10 set; the full set is
    asserted at benchmark scale in tests/bench/test_paper_claims.py.
    """
    _, biscuit = tpch_engines
    used = []
    for number in sorted(ALL_QUERIES):
        run_query(biscuit, number)
        if biscuit.ndp_scans > 0:
            used.append(number)
    assert set(used) <= set(OFFLOADED_QUERIES)
    assert len(used) >= 5


def test_offloaded_queries_not_slower(tpch_engines):
    conv, biscuit = tpch_engines
    for number in (12, 14):
        _, conv_s = run_query(conv, number)
        _, biscuit_s = run_query(biscuit, number)
        assert biscuit_s < conv_s, "Q%d regressed under NDP" % number
    # Pure-scan Q6 at the tiny test scale is dominated by fixed offload
    # costs (sampling, app setup); it must still be close to parity.  The
    # real gain is asserted at benchmark scale.
    _, conv_s = run_query(conv, 6)
    _, biscuit_s = run_query(biscuit, 6)
    assert biscuit_s <= conv_s * 1.35


def test_q14_wins_big_even_at_test_scale(tpch_engines):
    conv, biscuit = tpch_engines
    _, conv_s = run_query(conv, 14)
    _, biscuit_s = run_query(biscuit, 14)
    assert conv_s / biscuit_s > 10


def test_q1_returns_four_groups(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_query(conv, 1)
    flags = {(row[0], row[1]) for row in rel.rows}
    assert flags == {("A", "F"), ("N", "F"), ("N", "O"), ("R", "F")}


def test_q6_revenue_positive(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_query(conv, 6)
    assert rel.rows[0][0] > 0


def test_q13_includes_zero_order_customers(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_query(conv, 13)
    counts = dict(rel.rows)
    assert 0 in counts and counts[0] > 0


def test_q22_country_codes(tpch_engines):
    conv, _ = tpch_engines
    rel, _ = run_query(conv, 22)
    codes = {row[0] for row in rel.rows}
    assert codes <= {"13", "31", "23", "29", "30", "18", "17"}
