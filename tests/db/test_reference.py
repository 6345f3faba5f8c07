"""The SQLite reference's conventions (repro.db.reference).

If one of these drifts, every reference answer is wrong without any error,
so each is pinned on its own.
"""

import pytest

from repro.db.catalog import Column, TableSchema, d
from repro.db.reference import REFERENCE_QUERIES, query

SCHEMA = TableSchema("t", [Column("k", "int"), Column("s", "str"),
                           Column("x", "float"), Column("day", "date")])
ROWS = [(1, "abc", 0.5, d("1994-01-01")), (2, "Abd", 1.5, d("1995-06-30"))]
TABLES = {"t": (SCHEMA, ROWS)}


def test_like_is_case_sensitive():
    assert query(TABLES, "SELECT k FROM t WHERE s LIKE 'A%'") == [(2,)]
    assert query(TABLES, "SELECT k FROM t WHERE s LIKE 'a%'") == [(1,)]


def test_a_scalar_aggregate_over_zero_rows_yields_no_row():
    assert query(TABLES, "SELECT SUM(x), COUNT(*) FROM t WHERE k > 9 "
                         "HAVING COUNT(*) > 0") == []
    assert query(TABLES, "SELECT SUM(x), COUNT(*) FROM t "
                         "HAVING COUNT(*) > 0") == [(2.0, 2)]


@pytest.mark.parametrize("text", ["1992-01-01", "1996-02-29", "1998-09-02"])
def test_julianday_literal_is_the_engines_day_number(text):
    sql = "SELECT CAST(julianday('%s') - 2440587.5 AS INTEGER)" % text
    assert query({}, sql) == [(d(text),)]


def test_values_come_back_exactly_through_the_loader():
    text = "O'Brien — café"
    rows = [(7, text, 0.1 + 0.2, d("1996-02-29"))]
    (got,) = query({"t": (SCHEMA, rows)}, "SELECT * FROM t")
    assert got == rows[0]
    assert [type(value) for value in got] == [int, str, float, int]


def test_covered_queries_are_the_set_the_e2e_check_iterates():
    assert sorted(REFERENCE_QUERIES) == [1, 3, 4, 6, 10, 12, 14, 15, 18, 22]
    assert all(isinstance(sql, str) for sql in REFERENCE_QUERIES.values())
