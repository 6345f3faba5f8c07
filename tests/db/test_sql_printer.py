"""to_sql: rendering expressions back to parseable, equivalent SQL."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import kernels
from repro.db.catalog import Column, TableSchema
from repro.db.expr import (
    Like, and_, between, col, compile_expr, eq, ge, gt, in_, le, like, lt, ne,
    not_, not_like, or_,
)
from repro.db.sql import parse, to_sql
from repro.testing import strategies

POSITIONS = {"a": 0, "b": 1, "s": 2}


def roundtrip_where(expr):
    """Parse `SELECT a FROM t WHERE <rendered>` and return the WHERE tree."""
    return parse("SELECT a FROM t WHERE " + to_sql(expr)).where


def equivalent(original, reparsed, rows):
    f = compile_expr(original, POSITIONS)
    g = compile_expr(reparsed, POSITIONS)
    return all(bool(f(row)) == bool(g(row)) for row in rows)


ROWS = [
    (0, 0.0, ""), (1, 1.5, "abc"), (5, -2.0, "hello world"),
    (10, 3.25, "xyz"), (-3, 0.5, "a'b"),
]


def test_simple_comparisons_roundtrip():
    for expr in (eq(col("a"), 5), ne(col("a"), 5), lt(col("b"), 1.5),
                 le(col("a"), 0), gt(col("a"), -3), ge(col("b"), 0.0)):
        assert equivalent(expr, roundtrip_where(expr), ROWS)


def test_logic_roundtrip():
    expr = or_(and_(eq(col("a"), 1), gt(col("b"), 0.0)), eq(col("s"), "abc"))
    assert equivalent(expr, roundtrip_where(expr), ROWS)


def test_not_roundtrip():
    expr = not_(eq(col("a"), 5))
    assert equivalent(expr, roundtrip_where(expr), ROWS)


def test_between_renders_half_open():
    expr = between(col("a"), 0, 10)
    text = to_sql(expr)
    assert ">=" in text and "<" in text
    assert equivalent(expr, roundtrip_where(expr), ROWS)


def test_in_and_like_roundtrip():
    for expr in (in_(col("a"), (1, 5, 10)), like(col("s"), "he%o")):
        assert equivalent(expr, roundtrip_where(expr), ROWS)


def test_string_quote_escaping():
    expr = eq(col("s"), "a'b")
    assert equivalent(expr, roundtrip_where(expr), ROWS)


def test_not_like_parses_back_to_a_negated_like():
    expr = not_like(col("s"), "a%")
    assert to_sql(expr) == "s NOT LIKE 'a%'"
    assert roundtrip_where(expr) == Like(col("s"), "a%", negated=True)


def _generated_cases(seeds):
    """(schema, rows, pred) as the differential harness draws them."""
    for seed in seeds:
        rng = random.Random(seed)
        strategies.gen_ssd_config(rng)
        schema, rows = strategies.gen_table(rng)
        yield schema, rows, strategies.gen_query(rng, schema, rows)["pred"]


def test_generated_predicates_keep_their_rows_through_to_sql():
    """The SQLite reference reads to_sql's text, the engine the AST: a
    predicate parsed back from to_sql must keep exactly the same rows."""
    quoted = TableSchema("t", [Column("c0", "int"), Column("s", "str")])
    quoted_rows = [(i, word) for i, word in enumerate(
        ("alpha", "a'b", "O'Brien", "bravo", "", "a%b"))]
    cases = list(_generated_cases(range(300))) + [
        (quoted, quoted_rows, not_like(col("s"), "a%")),
        (quoted, quoted_rows, in_(col("s"), ("a'b", "O'Brien", "zulu"))),
    ]
    for schema, rows, pred in cases:
        positions = {name: i for i, name in enumerate(schema.column_names())}
        reparsed = parse("SELECT c0 FROM t WHERE " + to_sql(pred)).where
        assert (kernels.select(positions, reparsed)(rows)
                == kernels.select(positions, pred)(rows)), to_sql(pred)


@st.composite
def predicates(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        column = draw(st.sampled_from(["a", "b"]))
        op = draw(st.sampled_from([eq, ne, lt, le, gt, ge]))
        value = draw(st.integers(-20, 20)) if column == "a" else \
            draw(st.floats(-5, 5, allow_nan=False))
        return op(col(column), value)
    combiner = draw(st.sampled_from([and_, or_]))
    left = draw(predicates(depth=depth + 1))
    right = draw(predicates(depth=depth + 1))
    if draw(st.booleans()):
        left = not_(left)
    return combiner(left, right)


@settings(max_examples=60, deadline=None)
@given(predicates())
def test_property_roundtrip_preserves_semantics(expr):
    reparsed = roundtrip_where(expr)
    assert equivalent(expr, reparsed, ROWS)
