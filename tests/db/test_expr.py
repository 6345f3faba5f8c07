"""Expression engine: evaluation semantics and matcher-offload analysis."""

import pytest

from repro.db.expr import (
    Between,
    and_,
    between,
    case,
    col,
    columns_of,
    compile_expr,
    div,
    eq,
    ge,
    gt,
    in_,
    le,
    like,
    lt,
    matcher_candidates,
    mul,
    ne,
    not_,
    not_like,
    or_,
    sub,
    substring,
    year_of,
)

POS = {"a": 0, "b": 1, "s": 2, "dt": 3}
ROW = (10, 2.5, "hello world", 9374)  # dt = 1995-09-01


def ev(expr, row=ROW):
    return compile_expr(expr, POS)(row)


# ---------------------------------------------------------------- evaluation
def test_comparisons():
    assert ev(eq(col("a"), 10))
    assert ev(ne(col("a"), 11))
    assert ev(lt(col("b"), 3.0))
    assert ev(le(col("a"), 10))
    assert ev(gt(col("a"), 9))
    assert ev(ge(col("a"), 10))
    assert not ev(eq(col("a"), 11))


def test_logic():
    assert ev(and_(eq(col("a"), 10), lt(col("b"), 3.0)))
    assert not ev(and_(eq(col("a"), 10), gt(col("b"), 3.0)))
    assert ev(or_(eq(col("a"), 99), eq(col("a"), 10)))
    assert ev(not_(eq(col("a"), 99)))


def test_between_half_open():
    assert ev(between(col("a"), 10, 11))
    assert not ev(between(col("a"), 5, 10))  # exclusive high


def test_in_list():
    assert ev(in_(col("a"), (1, 10, 20)))
    assert not ev(in_(col("a"), (1, 2)))


def test_like_patterns():
    assert ev(like(col("s"), "hello%"))
    assert ev(like(col("s"), "%world"))
    assert ev(like(col("s"), "%llo wo%"))
    assert ev(like(col("s"), "hel_o%"))
    assert not ev(like(col("s"), "world%"))
    assert ev(not_like(col("s"), "bye%"))


def test_arithmetic():
    assert ev(mul(col("a"), 2)) == 20
    assert ev(sub(col("a"), col("b"))) == 7.5
    assert ev(div(col("a"), 4)) == 2.5


def test_case_expression():
    expr = case([(eq(col("a"), 10), "ten"), (eq(col("a"), 20), "twenty")], "other")
    assert ev(expr) == "ten"
    assert ev(expr, (20, 0, "", 0)) == "twenty"
    assert ev(expr, (5, 0, "", 0)) == "other"


def test_year_and_substring_functions():
    assert ev(year_of(col("dt"))) == 1995
    assert ev(substring(col("s"), 1, 5)) == "hello"
    assert ev(substring(col("s"), 7, 5)) == "world"


def test_operator_sugar():
    assert ev(eq(col("a"), 10) & lt(col("b"), 3.0))
    assert ev(eq(col("a"), 0) | eq(col("a"), 10))


def test_missing_column_raises():
    with pytest.raises(KeyError):
        compile_expr(col("zzz"), POS)


def test_columns_of():
    expr = and_(eq(col("a"), 1), or_(lt(col("b"), 2), like(col("s"), "x%")))
    assert columns_of(expr) == ["a", "b", "s"]


# ------------------------------------------------------- offload analysis
def test_equality_is_best_candidate():
    mf = matcher_candidates(and_(eq(col("a"), 5), between(col("dt"), 1, 9)))[0]
    assert mf.description.startswith("eq(")
    assert mf.key_count == 1


def test_in_list_counts_keys():
    mf = matcher_candidates(in_(col("s"), ("aa", "bb", "cc")))[0]
    assert mf.key_count == 3


def test_in_list_too_many_keys_rejected():
    assert matcher_candidates(in_(col("s"), ("a", "b", "c", "d"))) == []


def test_or_of_equalities_single_column():
    mf = matcher_candidates(or_(eq(col("a"), 1), eq(col("a"), 2)))[0]
    assert mf.key_count == 2


def test_or_across_columns_rejected():
    assert matcher_candidates(or_(eq(col("a"), 1), eq(col("b"), 2.0))) == []


def test_not_like_rejected():
    """The paper's named HW limitation."""
    assert matcher_candidates(not_like(col("s"), "%spam%")) == []


def test_like_prefix_usable():
    assert matcher_candidates(like(col("s"), "forest%")) != []


def test_like_inner_literal_usable():
    assert matcher_candidates(like(col("s"), "%green%")) != []


def test_like_short_literals_rejected():
    assert matcher_candidates(like(col("s"), "%a_b%")) == []


def test_range_usable_as_one_key():
    mf = matcher_candidates(between(col("dt"), 100, 200))[0]
    assert mf.key_count == 1


def test_half_range_usable():
    assert matcher_candidates(le(col("dt"), 100)) != []


def test_column_to_column_rejected():
    assert matcher_candidates(lt(col("a"), col("b"))) == []


def test_function_column_rejected():
    assert matcher_candidates(in_(substring(col("s"), 1, 2), ("he", "wo"))) == []


def test_none_predicate():
    assert matcher_candidates(None) == []


def test_candidates_ordered_by_priority():
    pred = and_(between(col("dt"), 1, 2), eq(col("a"), 1), like(col("s"), "abc%"))
    candidates = matcher_candidates(pred)
    assert len(candidates) == 3
    assert candidates[0].description.startswith("eq(")
    assert isinstance(candidates[-1].conjunct, Between)
