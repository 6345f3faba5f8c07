"""Generated kernels: the semantics a naive emitter gets wrong, a seeded
property sweep against the independent interpreter, and --explain showing
the kernels that really run."""

import random
import re

import pytest

from repro.db import kernels
from repro.db.executor import AggPlan, ExecutionMode, Rel
from repro.db.expr import (
    Arith, Between, Case, Cmp, Col, Const, Func, InList, Like, Logic, Not,
    and_, between, case, col, compile_expr, div, eq, gt, lit, or_, substring,
    year_of,
)
from repro.db.planner import create_engine
from repro.db.sql import run_explain, run_sql
from repro.db.tpch.datagen import load_tpch
from repro.host.platform import System
from repro.testing.differential import eval_expr

POS = {"a": 0, "b": 1, "s": 2, "dt": 3}
ROW = (10, 2.5, "hello world", 9374)  # dt = 1995-09-01


def ev(expr, row=ROW):
    return compile_expr(expr, POS)(row)


# ----------------------------------------------- semantics the emitter pins
@pytest.mark.parametrize("expr, expected", [
    (and_(col("a"), col("s")), True),  # a bare `a and b` would leak "hello world"
    (or_(col("a"), col("s")), True),  # ... and a bare `a or b` the 10
    (and_(col("a"), lit(0)), False),
    (or_(lit(0), lit("")), False),
    (Logic("and", ()), True),
    (Logic("or", ()), False),
])
def test_logic_yields_a_real_bool_for_non_boolean_operands(expr, expected):
    assert ev(expr) is expected
    # ... also as a projected column, where no `if` coerces it.
    assert kernels.select(POS, None, [expr])([ROW]) == [(expected,)]


def test_logic_short_circuits_left_to_right():
    boom = gt(div(col("a"), 0), 1)  # ZeroDivisionError if evaluated
    assert ev(and_(eq(col("a"), 99), boom)) is False
    assert ev(or_(eq(col("a"), 10), boom)) is True
    with pytest.raises(ZeroDivisionError):
        ev(and_(boom, eq(col("a"), 99)))


def test_case_evaluates_conditions_in_order_and_only_the_taken_branch():
    boom = div(col("a"), 0)
    assert ev(case([(eq(col("a"), 10), "ten"), (gt(boom, 1), "late")], "no")) == "ten"
    assert ev(case([(eq(col("a"), 11), boom)], "default")) == "default"
    with pytest.raises(ZeroDivisionError):
        ev(case([(gt(boom, 1), "first"), (eq(col("a"), 10), "ten")], "no"))


def test_between_evaluates_low_then_column_then_high():
    zero_div = div(col("a"), 0)  # ZeroDivisionError
    bad_slice = substring(col("a"), 1, 1)  # TypeError: int is not subscriptable
    with pytest.raises(ZeroDivisionError):  # low before column
        ev(Between(bad_slice, zero_div, lit(1)))
    with pytest.raises(TypeError):  # column before high
        ev(Between(bad_slice, lit(0), zero_div))
    # high is not evaluated once low <= column fails.
    assert ev(Between(col("a"), lit(11), zero_div)) is False


def test_substring_is_one_based_and_year_matches_the_calendar():
    assert ev(substring(col("s"), 1, 5)) == "hello"
    assert ev(substring(col("s"), 7, 50)) == "world"
    assert ev(year_of(col("dt"))) == 1995
    assert ev(year_of(lit(0))) == 1970
    assert ev(year_of(lit(-1))) == 1969
    assert ev(year_of(lit(365))) == 1971


def test_unknown_names_raise_at_compile_time_with_the_same_errors():
    with pytest.raises(KeyError, match=r"column 'zzz' not in relation \['a', 'b', 'dt', 's'\]"):
        compile_expr(col("zzz"), POS)
    with pytest.raises(KeyError, match="column 'zzz' not in relation"):
        kernels.select(POS, eq(col("zzz"), 1))
    with pytest.raises(TypeError, match="unknown function 'sqrt'"):
        compile_expr(Func("sqrt", (col("a"),)), POS)
    with pytest.raises(TypeError, match="cannot compile"):
        compile_expr("a = 1", POS)
    with pytest.raises(KeyError):
        compile_expr(Cmp("<>; import os", col("a"), lit(1)), POS)


def test_constants_are_bound_by_name_never_spliced_into_source():
    needle = "x') or __import__('os').system('true') or ('"
    values = (needle, 0.1 + 0.2, frozenset([1]))
    kernel = kernels.select(POS, and_(
        eq(col("s"), needle), eq(col("b"), values[1]), InList(col("a"), values[2:])))
    assert "import" not in kernel.source and "0.3" not in kernel.source
    bound = [kernel.__globals__[name] for name in ("k0", "k1")]
    assert bound[0] is needle and bound[1] is values[1]
    assert kernel([(1, values[1], needle, 0)]) == []  # frozenset([1]) is not 1


def test_a_source_compiles_once_and_each_build_binds_its_own_constants(monkeypatch):
    calls = []

    def counting_compile(*args):
        calls.append(args[0])
        return compile(*args)

    monkeypatch.setattr(kernels, "compile", counting_compile, raising=False)
    # A source no other test builds, so the process-wide cache is cold.
    source = "def kernel(rows): return [r for r in rows if r[0] == k0 + 0]"
    equals_two = kernels.build(source, {"k0": 2})
    equals_five = kernels.build(source, {"k0": 5})
    assert calls == [source]
    assert equals_two.source == equals_five.source == source
    rows = [(2,), (5,), (2,)]
    assert equals_two(rows) == [(2,), (2,)]
    assert equals_five(rows) == [(5,)]


# ---------------------------------------------------------- one aggregate
def test_aggplan_contract():
    rows = [("a", 1), ("a", 2), ("b", 5)]
    positions = {"g": 0, "v": 1}
    aggs = [("s", "sum", col("v")), ("n", "count", None), ("m", "avg", col("v")),
            ("lo", "min", col("v")), ("hi", "max", col("v"))]
    plan = AggPlan(["g"], aggs)
    assert plan.device_ok
    assert [(name, kind) for name, kind, _expr in plan.slots] == [
        ("s", "sum"), ("n", "count"), ("m_sum", "sum"), ("m_count", "count"),
        ("lo", "min"), ("hi", "max")]
    states = plan.fold(positions)({}, rows)
    assert states == {("a",): [3, 2, 3, 2, 1, 2], ("b",): [5, 1, 5, 1, 5, 5]}
    assert isinstance(states[("a",)][0], int)  # first value: an int sum stays an int
    one_pass = plan.finalize(states)
    assert one_pass.columns == ["g", "s", "n", "m", "lo", "hi"]
    assert one_pass.rows == [("a", 3, 2, 1.5, 1, 2), ("b", 5, 1, 5.0, 5, 5)]
    assert plan.run(Rel(["g", "v"], rows)).rows == one_pass.rows
    # Any partition of the rows, merged in any order, is the one pass.
    rng = random.Random(7)
    for _ in range(50):
        shuffled = rng.sample(rows, len(rows))
        cuts = sorted(rng.randint(0, len(rows)) for _ in range(2))
        totals: dict = {}
        for part in (shuffled[:cuts[0]], shuffled[cuts[0]:cuts[1]], shuffled[cuts[1]:]):
            plan.merge(totals, plan.fold(positions)({}, part))
        merged = plan.finalize(totals)
        assert sorted(merged.rows) == one_pass.rows
        assert [type(v) for row in sorted(merged.rows) for v in row] == [
            type(v) for row in one_pass.rows for v in row]
    assert AggPlan(["g"], [("c", "count", None)]).finalize({("k",): [None]}).rows == [("k", 0)]
    # count_distinct: a value set, folded (and merged) host-side, never shipped.
    distinct = AggPlan([], [("d", "count_distinct", col("v"))])
    assert not distinct.device_ok
    assert distinct.run(Rel(["g", "v"], rows + [("a", 2)])).rows == [(3,)]
    totals = {}
    for part in (rows[:2], rows[1:]):
        distinct.merge(totals, distinct.fold(positions)({}, part))
    assert distinct.finalize(totals).rows == [(3,)]
    with pytest.raises(ValueError, match="median"):
        kernels.fold(positions, [0], [("x", "median", col("v"))])


# ------------------------------------------------------------ property sweep
_NAMES = ["i", "j", "x", "s", "t"]  # int, int, float, str, str
_POSITIONS = {name: index for index, name in enumerate(_NAMES)}
_WORDS = ["", "a", "ab", "abc", "a_c", "a%c", "été", "Ab"]


def _rows(rng, count):
    return [(rng.randrange(-5, 40), rng.randrange(0, 20000),
             rng.choice([0.0, 0.5, -1.25, 3.0, 1e9]),
             rng.choice(_WORDS), rng.choice(_WORDS)) for _ in range(count)]


def _number(rng, depth):
    """A numeric-valued expression (mixed int/float, never a division by a
    column: the interpreter and the kernel must not disagree on *which*
    error an ill-typed tree raises, only on values)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice([Col("i"), Col("j"), Col("x"),
                           Const(rng.choice([0, 1, 7, 2.5, -3]))])
    if roll < 0.6:
        op = rng.choice("+-*")
        return Arith(op, _number(rng, depth - 1), _number(rng, depth - 1))
    if roll < 0.7:
        return Arith("/", _number(rng, depth - 1), Const(rng.choice([2, 0.5, -4])))
    if roll < 0.8:
        return Func("year", (Col("j"),))
    return Case(tuple((_boolean(rng, depth - 1), _number(rng, depth - 1))
                      for _ in range(rng.randrange(1, 3))),
                _number(rng, depth - 1))


def _string(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return rng.choice([Col("s"), Col("t"), Const(rng.choice(_WORDS))])
    if roll < 0.75:
        return Func("substring", (_string(rng, depth - 1),
                                  Const(rng.randrange(1, 4)), Const(rng.randrange(0, 4))))
    return Case(((_boolean(rng, depth - 1), _string(rng, depth - 1)),),
                _string(rng, depth - 1))


def _boolean(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        side = _number if rng.random() < 0.7 else _string
        return Cmp(rng.choice(["==", "!=", "<", "<=", ">", ">="]),
                   side(rng, depth - 1), side(rng, depth - 1))
    if roll < 0.5:
        args = tuple(_boolean(rng, depth - 1) for _ in range(rng.randrange(2, 4)))
        return Logic(rng.choice(["and", "or"]), args)
    if roll < 0.6:
        return Not(_boolean(rng, depth - 1))
    if roll < 0.7:
        return Between(_number(rng, depth - 1), _number(rng, depth - 1),
                       _number(rng, depth - 1))
    if roll < 0.8:
        if rng.random() < 0.5:
            return InList(_number(rng, depth - 1), (0, 1, 2.5, 7, 30))
        return InList(_string(rng, depth - 1), tuple(rng.sample(_WORDS, 3)))
    if roll < 0.9:
        pattern = rng.choice(["%", "a%", "%c", "a_c", "_", "a\\%c%", "%b%", "A%", "ét_"])
        return Like(_string(rng, depth - 1), pattern, negated=rng.random() < 0.3)
    return Case(((_boolean(rng, depth - 1), _boolean(rng, depth - 1)),),
                _boolean(rng, depth - 1))


@pytest.mark.parametrize("seed", range(60))
def test_generated_kernels_agree_with_the_independent_interpreter(seed):
    rng = random.Random(seed)
    rows = _rows(rng, 40)
    pred = _boolean(rng, 3)
    exprs = [_number(rng, 3), _string(rng, 2), _boolean(rng, 2)]
    want = [[eval_expr(e, row, _POSITIONS) for row in rows] for e in [pred] + exprs]
    truth, values = want[0], list(zip(*want[1:]))
    for got, expected in zip([pred] + exprs, want):
        fn = compile_expr(got, _POSITIONS)
        assert [fn(row) for row in rows] == expected
        assert [type(fn(row)) for row in rows] == [type(v) for v in expected]
    survivors = [row for row, keep in zip(rows, truth) if keep]
    assert kernels.select(_POSITIONS, pred)(rows) == survivors
    assert kernels.select(_POSITIONS, None, exprs)(rows) == values
    assert kernels.select(_POSITIONS, pred, exprs)(rows) == [
        value for value, keep in zip(values, truth) if keep]
    # The fold against a per-row fold over the interpreter's values.
    sums: dict = {}
    for row, value in zip(rows, want[1]):
        sums.setdefault((row[3],), []).append(value)
    aggs = [("total", "sum", exprs[0]), ("n", "count", None),
            ("low", "min", exprs[0]), ("high", "max", exprs[0])]
    states = kernels.fold(_POSITIONS, [3], aggs)({}, rows)
    assert list(states) == list(sums)
    for group, group_values in sums.items():
        total = group_values[0]
        for value in group_values[1:]:
            total += value
        assert states[group] == [total, len(group_values),
                                 min(group_values), max(group_values)]


def test_merge_is_the_join_output_in_every_shape():
    left, right = ["a", "k"], ["k", "b"]
    ls, rs = [(1, "x"), (2, "y")], [("x", 10), ("y", 20), ("x", 30)]
    columns, cross = kernels.merge(left, right)
    assert columns == ["a", "k", "b"]  # the duplicate keeps the left copy
    assert cross(ls[:1], rs[:2]) == [(1, "x", 10), (1, "x", 20)]
    table = {"x": [rs[0], rs[2]], "y": [rs[1]]}
    _, probe_left = kernels.merge(left, right, probing=("l", 1))
    assert probe_left(ls, table) == [(1, "x", 10), (1, "x", 30), (2, "y", 20)]
    _, probe_right = kernels.merge(left, right, ["b", "a"], probing=("r", 0))
    assert probe_right({"x": [ls[0]]}, rs) == [(10, 1), (30, 1)]
    with pytest.raises(KeyError, match="join output column 'zzz' not available"):
        kernels.merge(left, right, ["zzz"])


# ------------------------------------------------------------------ explain
@pytest.mark.parametrize("statement", [
    "SELECT l_shipmode, COUNT(*) AS n, AVG(l_quantity) AS q FROM lineitem "
    "WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31' "
    "GROUP BY l_shipmode ORDER BY n DESC LIMIT 3",
    "SELECT o_orderkey, l_extendedprice FROM orders JOIN lineitem "
    "ON o_orderkey = l_orderkey WHERE o_orderdate < '1993-01-01' LIMIT 5",
])
@pytest.mark.parametrize("mode", [ExecutionMode.CONV, ExecutionMode.BISCUIT])
def test_explain_prints_the_kernels_the_statement_runs(monkeypatch, statement, mode):
    system = System()
    engine = create_engine(system, load_tpch(system.fs, 0.002), mode)
    plan = run_explain(engine, statement)
    shown = [line[19:] for line in plan.splitlines() if line.startswith(" " * 8)]
    assert any(line.startswith("def kernel(rows)") for line in shown)
    assert ("def kernel(states, rows):" in shown) == ("GROUP BY" in statement)

    built = []
    real_build = kernels.build
    monkeypatch.setattr(kernels, "build", lambda source, env: (
        built.append(source), real_build(source, env))[1])
    run_sql(engine, statement)
    ran = {line for source in built for line in source.splitlines()}
    assert set(shown) <= ran


def test_explain_prints_one_fold_whichever_engine_runs_it():
    statement = ("SELECT l_shipmode, SUM(l_partkey) AS parts, AVG(l_quantity) AS q "
                 "FROM lineitem WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31' "
                 "GROUP BY l_shipmode")
    system = System()
    db = load_tpch(system.fs, 0.002)
    folds = {}
    for mode in (ExecutionMode.CONV, ExecutionMode.BISCUIT):
        lines = run_explain(create_engine(system, db, mode), statement).splitlines()
        start = next(i for i, line in enumerate(lines) if "def kernel(states, rows):" in line)
        folds[mode] = "\n".join(re.sub(r"r\[\d+\]", "r[_]", line) for line in lines[start:]
                                if line.startswith(" " * 8))
    # The device folds stored rows, the host projected ones: only positions differ.
    assert folds[ExecutionMode.CONV] == folds[ExecutionMode.BISCUIT]
    assert "s[0] = v if s[0] is None else s[0] + v" in folds[ExecutionMode.CONV]
