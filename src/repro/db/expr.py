"""Predicate/expression AST and matcher-offload analysis.

Expressions are plain frozen dataclasses; :mod:`repro.db.kernels` turns one
into generated Python — :func:`compile_expr` (re-exported here) for a single
row, batch kernels for a page of them.

Offload analysis mirrors Section V-C: the planner needs to know whether a
table filter is "amenable for offloading" given the hardware pattern
matcher's limits — at most 3 keys of ≤16 bytes, no negated patterns.  A
range conjunct counts as one key-slot in our model (DESIGN.md records this
as a modeling liberty: the IP is treated as a page-granular prefilter for
the offloaded conjunct, which matches the paper's page-fraction definition
of selectivity).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.db.kernels import compile_expr
from repro.ssd.config import SSDConfig

__all__ = [
    "Expr", "Col", "Const", "Cmp", "Logic", "Not", "Between", "InList",
    "Like", "Arith", "Case", "Func",
    "col", "lit", "eq", "ne", "lt", "le", "gt", "ge", "and_", "or_", "not_",
    "between", "in_", "like", "not_like", "add", "sub", "mul", "div", "case",
    "year_of", "substring",
    "compile_expr", "columns_of", "MatcherFilter", "matcher_candidates",
]

class Expr:
    """Base expression node."""

    def __and__(self, other: "Expr") -> "Expr":
        return and_(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return or_(self, other)


@dataclass(frozen=True)
class Col(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    value: Any


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Logic(Expr):
    op: str  # and / or
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class Between(Expr):
    column: Expr
    low: Expr
    high: Expr  # inclusive low, exclusive high (TPC-H range idiom)


@dataclass(frozen=True)
class InList(Expr):
    column: Expr
    values: Tuple[Any, ...]


@dataclass(frozen=True)
class Like(Expr):
    column: Expr
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Case(Expr):
    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Expr


@dataclass(frozen=True)
class Func(Expr):
    """Scalar function call: 'year' (of a stored date int) or 'substring'."""

    fname: str
    args: Tuple[Expr, ...]


# ----------------------------------------------------------------- builders
def col(name: str) -> Col:
    return Col(name)


def lit(value: Any) -> Const:
    return Const(value)


def _wrap(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Const(value)


def eq(a, b) -> Cmp:
    return Cmp("==", _wrap(a), _wrap(b))


def ne(a, b) -> Cmp:
    return Cmp("!=", _wrap(a), _wrap(b))


def lt(a, b) -> Cmp:
    return Cmp("<", _wrap(a), _wrap(b))


def le(a, b) -> Cmp:
    return Cmp("<=", _wrap(a), _wrap(b))


def gt(a, b) -> Cmp:
    return Cmp(">", _wrap(a), _wrap(b))


def ge(a, b) -> Cmp:
    return Cmp(">=", _wrap(a), _wrap(b))


def and_(*args) -> Expr:
    flat: List[Expr] = []
    for arg in args:
        arg = _wrap(arg)
        if isinstance(arg, Logic) and arg.op == "and":
            flat.extend(arg.args)
        else:
            flat.append(arg)
    return flat[0] if len(flat) == 1 else Logic("and", tuple(flat))


def or_(*args) -> Expr:
    flat: List[Expr] = []
    for arg in args:
        arg = _wrap(arg)
        if isinstance(arg, Logic) and arg.op == "or":
            flat.extend(arg.args)
        else:
            flat.append(arg)
    return flat[0] if len(flat) == 1 else Logic("or", tuple(flat))


def not_(arg) -> Not:
    return Not(_wrap(arg))


def between(column, low, high) -> Between:
    """low <= column < high."""
    return Between(_wrap(column), _wrap(low), _wrap(high))


def in_(column, values: Sequence[Any]) -> InList:
    return InList(_wrap(column), tuple(values))


def like(column, pattern: str) -> Like:
    return Like(_wrap(column), pattern)


def not_like(column, pattern: str) -> Like:
    return Like(_wrap(column), pattern, negated=True)


def add(a, b) -> Arith:
    return Arith("+", _wrap(a), _wrap(b))


def sub(a, b) -> Arith:
    return Arith("-", _wrap(a), _wrap(b))


def mul(a, b) -> Arith:
    return Arith("*", _wrap(a), _wrap(b))


def div(a, b) -> Arith:
    return Arith("/", _wrap(a), _wrap(b))


def case(whens: Sequence[Tuple[Expr, Any]], default: Any = 0) -> Case:
    return Case(
        tuple((cond, _wrap(value)) for cond, value in whens), _wrap(default)
    )


def year_of(arg) -> Func:
    """EXTRACT(YEAR FROM date-column)."""
    return Func("year", (_wrap(arg),))


def substring(arg, start: int, length: int) -> Func:
    """SUBSTRING(str, start, length) — 1-based start, as in SQL."""
    return Func("substring", (_wrap(arg), Const(start), Const(length)))


def columns_of(expr: Expr) -> List[str]:
    """All column names referenced by an expression."""
    out: List[str] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Col):
            if node.name not in out:
                out.append(node.name)
        elif isinstance(node, Cmp) or isinstance(node, Arith):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Logic):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, Not):
            walk(node.arg)
        elif isinstance(node, Between):
            walk(node.column)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, (InList, Like)):
            walk(node.column)
        elif isinstance(node, Case):
            for cond, value in node.whens:
                walk(cond)
                walk(value)
            walk(node.default)
        elif isinstance(node, Func):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return out


# ------------------------------------------------------ matcher offloadability
@dataclass
class MatcherFilter:
    """The conjunct the pattern-matcher IP prefilters pages with."""

    conjunct: Expr
    key_count: int  # HW key slots consumed (≤ SSDConfig.matcher_max_keys)
    description: str


def _conjuncts(expr: Expr) -> List[Expr]:
    if isinstance(expr, Logic) and expr.op == "and":
        return list(expr.args)
    return [expr]


def _usable(conjunct: Expr) -> Optional[Tuple[int, int, str]]:
    """(priority, key_count, description) if HW-usable, else None.

    Lower priority = preferred (more selective key shapes first).  The key
    count is not checked against the IP's slots here: that is
    :func:`matcher_candidates`'s one test against ``matcher_max_keys``.
    """
    if isinstance(conjunct, Cmp) and conjunct.op == "==":
        if isinstance(conjunct.left, Col) and isinstance(conjunct.right, Const):
            return (0, 1, "eq(%s)" % conjunct.left.name)
    if isinstance(conjunct, InList) and isinstance(conjunct.column, Col):
        return (1, len(conjunct.values), "in(%s)" % conjunct.column.name)
    if isinstance(conjunct, Logic) and conjunct.op == "or":
        # OR of equalities on one column == an IN list.
        columns = set()
        count = 0
        for arg in conjunct.args:
            if (
                isinstance(arg, Cmp) and arg.op == "=="
                and isinstance(arg.left, Col) and isinstance(arg.right, Const)
            ):
                columns.add(arg.left.name)
                count += 1
            else:
                return None
        if len(columns) == 1:
            return (1, count, "or-eq(%s)" % columns.pop())
        return None
    if isinstance(conjunct, Like) and isinstance(conjunct.column, Col):
        if conjunct.negated:
            return None  # HW limitation called out in the paper (NOT LIKE)
        prefix = conjunct.pattern.split("%")[0].split("_")[0]
        if len(prefix) >= 3:
            return (2, 1, "like(%s)" % conjunct.column.name)
        # Leading wildcard with a long inner literal still works as a key.
        literals = [part for part in re.split(r"[%_]", conjunct.pattern) if part]
        if literals and max(len(part) for part in literals) >= 3:
            return (2, 1, "like-sub(%s)" % conjunct.column.name)
        return None
    if isinstance(conjunct, Between) and isinstance(conjunct.column, Col):
        return (3, 1, "range(%s)" % conjunct.column.name)
    if isinstance(conjunct, Cmp) and conjunct.op in ("<", "<=", ">", ">="):
        if isinstance(conjunct.left, Col) and isinstance(conjunct.right, Const):
            return (4, 1, "half-range(%s)" % conjunct.left.name)
    return None


def matcher_candidates(predicate: Optional[Expr]) -> List[MatcherFilter]:
    """All HW-usable conjuncts, best-priority first.

    A conjunct needing more keys than the IP has slots
    (``SSDConfig.matcher_max_keys``) is dropped.  The planner samples each
    candidate's page selectivity and configures the IP with the most
    selective one; an empty list (no literal key, NOT LIKE, too many IN
    values...) is exactly the queries Fig. 10 leaves at 1.0x because "the
    query planner gives up NDP".
    """
    if predicate is None:
        return []
    out: List[Tuple[int, MatcherFilter]] = []
    conjuncts = _conjuncts(predicate)
    for conjunct in conjuncts:
        usable = _usable(conjunct)
        if usable is None:
            continue
        priority, keys, description = usable
        if keys > SSDConfig.matcher_max_keys:
            continue
        out.append((priority, MatcherFilter(conjunct, keys, description)))
    # Pairs of half-ranges on one column (how SQL BETWEEN arrives) form a
    # tight range — far more selective than either half alone.
    lows: dict = {}
    highs: dict = {}
    for conjunct in conjuncts:
        if (isinstance(conjunct, Cmp) and isinstance(conjunct.left, Col)
                and isinstance(conjunct.right, Const)):
            if conjunct.op in (">", ">="):
                lows[conjunct.left.name] = conjunct
            elif conjunct.op in ("<", "<="):
                highs[conjunct.left.name] = conjunct
    # Sorted: set intersection iterates in hash order (PYTHONHASHSEED-
    # dependent for str keys), and the stable sort below preserves insertion
    # order among equal priorities — so an unsorted walk here would make the
    # planner's choice among equally-ranked range filters vary across runs.
    for column in sorted(set(lows) & set(highs)):
        synthetic = and_(lows[column], highs[column])
        out.append((3, MatcherFilter(synthetic, 1, "range(%s)" % column)))
    out.sort(key=lambda pair: pair[0])
    return [mf for _, mf in out]
