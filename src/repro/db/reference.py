"""Reference answers from an engine we did not write: stdlib ``sqlite3``.

The raw generated rows are loaded into an in-memory SQLite database and the
statement runs there, so a reference answer shares no code with the
executor, the planner, the NDP path or the SQL parser.  Four conventions
keep SQLite's reading of a statement equal to the engine's:

* a date is an integer day count since 1970-01-01 (``catalog.d``); a
  literal date is written ``CAST(julianday('1998-09-02') - 2440587.5 AS
  INTEGER)``, which any SQLite Python links can evaluate;
* LIKE is case-sensitive (``PRAGMA case_sensitive_like``), as the engine's
  is;
* the engine folds an aggregate over zero rows into no row, where SQL
  yields one row of NULLs: a caller that needs the engine's answer adds
  ``HAVING COUNT(*) > 0`` to a scalar aggregate;
* ``repro.db.sql.to_sql`` renders the engine's half-open ``Between`` as two
  comparisons, so a predicate printed by it means the same in both.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.db.catalog import TableSchema
from repro.db.tpch.schema import TPCH_SCHEMAS

__all__ = ["REFERENCE_QUERIES", "load", "query", "reference_result"]

Rows = List[Tuple[Any, ...]]
Tables = Mapping[str, Tuple[TableSchema, Sequence[tuple]]]

_SQL_TYPES = {"int": "INTEGER", "date": "INTEGER", "float": "REAL", "str": "TEXT"}


def load(tables: Tables):
    """An in-memory ``sqlite3`` connection holding one table per schema."""
    # Imported here, not at module top: every e2e workload process imports
    # this module, and the import alone costs about 0.85 MiB of RSS that
    # only a run asking for a reference answer should pay.
    import sqlite3

    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    for name, (schema, rows) in tables.items():
        conn.execute("CREATE TABLE %s (%s)" % (name, ", ".join(
            "%s %s" % (column.name, _SQL_TYPES[column.ctype])
            for column in schema.columns)))
        conn.executemany("INSERT INTO %s VALUES (%s)" % (
            name, ", ".join("?" * len(schema.columns))), rows)
    return conn


def query(tables: Tables, sql: str) -> Rows:
    """The rows SQLite returns for ``sql`` over the given tables."""
    conn = load(tables)
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


#: The covered TPC-H queries, each emitting the columns of the engine's
#: program (Q18: the six that ``benchmarks/e2e`` compares on).
REFERENCE_QUERIES = {
    1: """
        SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice),
               SUM(l_extendedprice * (1 - l_discount)),
               SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
               AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*)
        FROM lineitem
        WHERE l_shipdate <= CAST(julianday('1998-09-02') - 2440587.5 AS INTEGER)
        GROUP BY l_returnflag, l_linestatus""",
    3: """
        SELECT l_orderkey, o_orderdate, o_shippriority,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer JOIN orders ON o_custkey = c_custkey
                      JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < CAST(julianday('1995-03-15') - 2440587.5 AS INTEGER)
          AND l_shipdate > CAST(julianday('1995-03-15') - 2440587.5 AS INTEGER)
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate LIMIT 10""",
    4: """
        SELECT o_orderpriority, COUNT(*) FROM orders
        WHERE o_orderdate >= CAST(julianday('1993-07-01') - 2440587.5 AS INTEGER)
          AND o_orderdate < CAST(julianday('1993-10-01') - 2440587.5 AS INTEGER)
          AND o_orderkey IN (SELECT l_orderkey FROM lineitem
                             WHERE l_commitdate < l_receiptdate)
        GROUP BY o_orderpriority""",
    6: """
        SELECT TOTAL(l_extendedprice * l_discount) FROM lineitem
        WHERE l_shipdate >= CAST(julianday('1994-01-01') - 2440587.5 AS INTEGER)
          AND l_shipdate < CAST(julianday('1995-01-01') - 2440587.5 AS INTEGER)
          AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24.0""",
    10: """
        SELECT c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer JOIN orders ON o_custkey = c_custkey
                      JOIN lineitem ON l_orderkey = o_orderkey
                      JOIN nation ON n_nationkey = c_nationkey
        WHERE o_orderdate >= CAST(julianday('1993-10-01') - 2440587.5 AS INTEGER)
          AND o_orderdate < CAST(julianday('1994-01-01') - 2440587.5 AS INTEGER)
          AND l_returnflag = 'R'
        GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
        ORDER BY revenue DESC LIMIT 20""",
    12: """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END),
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END)
        FROM orders JOIN lineitem ON l_orderkey = o_orderkey
        WHERE l_shipmode IN ('MAIL', 'SHIP')
          AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
          AND l_receiptdate >= CAST(julianday('1994-01-01') - 2440587.5 AS INTEGER)
          AND l_receiptdate < CAST(julianday('1995-01-01') - 2440587.5 AS INTEGER)
        GROUP BY l_shipmode""",
    14: """
        SELECT COALESCE(100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                                         THEN l_extendedprice * (1 - l_discount)
                                         ELSE 0.0 END)
                        / SUM(l_extendedprice * (1 - l_discount)), 0.0)
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE l_shipdate >= CAST(julianday('1995-09-01') - 2440587.5 AS INTEGER)
          AND l_shipdate < CAST(julianday('1995-10-01') - 2440587.5 AS INTEGER)""",
    15: """
        WITH revenue AS (
            SELECT l_suppkey AS supplier_no,
                   SUM(l_extendedprice * (1 - l_discount)) AS total
            FROM lineitem
            WHERE l_shipdate >= CAST(julianday('1996-01-01') - 2440587.5 AS INTEGER)
              AND l_shipdate < CAST(julianday('1996-04-01') - 2440587.5 AS INTEGER)
            GROUP BY l_suppkey)
        SELECT s_suppkey, total, s_suppkey, s_name, s_address, s_phone
        FROM supplier JOIN revenue ON supplier_no = s_suppkey
        WHERE total = (SELECT MAX(total) FROM revenue)""",
    18: """
        SELECT o_orderkey, qty, o_custkey, o_orderdate, o_totalprice, c_name
        FROM (SELECT l_orderkey, SUM(l_quantity) AS qty FROM lineitem
              GROUP BY l_orderkey HAVING SUM(l_quantity) > 300.0)
             JOIN orders ON o_orderkey = l_orderkey
             JOIN customer ON c_custkey = o_custkey
        ORDER BY o_totalprice DESC, o_orderdate LIMIT 100""",
    22: """
        WITH coded AS (
            SELECT substr(c_phone, 1, 2) AS code, c_custkey, c_acctbal FROM customer
            WHERE substr(c_phone, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17'))
        SELECT code, COUNT(*), SUM(c_acctbal) FROM coded
        WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM coded WHERE c_acctbal > 0.0)
          AND c_custkey NOT IN (SELECT o_custkey FROM orders)
        GROUP BY code""",
}


def reference_result(number: int, data: Dict[str, Rows]) -> Rows:
    """SQLite's answer to covered TPC-H query ``number`` over the raw rows."""
    return query({name: (TPCH_SCHEMAS[name], rows) for name, rows in data.items()},
                 REFERENCE_QUERIES[number])
