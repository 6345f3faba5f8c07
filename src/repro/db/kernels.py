"""Generated batch kernels: compile once per process, run per page.

An :class:`~repro.db.expr.Expr` is emitted once as a Python expression over
a row ``r`` and wrapped, per use, as a function over one page's
``List[tuple]`` whose body is a single comprehension (or, for the folds, one
loop) — so an operator pays one Python call per page, not several per row.
Constants are bound by *name* in the kernel's globals, never by ``repr``:
the floats, strings, ``frozenset``s and compiled LIKE regexes are the very
objects the predicate was built with, and the source text (``.source`` on
every kernel, printed by ``--explain``) does not depend on the hash seed.

This is the only module under ``src/repro`` that executes generated source
(:func:`build`; lint rule RPR007); the row codec in :mod:`repro.db.storage`
emits its per-schema functions through it too.
"""

from __future__ import annotations

import re
from datetime import date
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["build", "compile_expr", "select", "merge", "fold"]

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_OPERATORS = frozenset(("==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"))
#: Distinct kernel sources whose code objects stay compiled (all 22 TPC-H
#: queries on both engines build 135).
_COMPILED_SOURCES = 1024


@lru_cache(maxsize=_COMPILED_SOURCES)
def _code(source: str):
    return compile(source, "<kernel>", "exec")


def build(source: str, env: Dict[str, Any]) -> Callable:
    """Run ``source`` — one ``def kernel(...)`` — with ``env`` as its
    globals; the function carries its text as ``.source``.  A source is
    compiled once per process: constants are bound by name in ``env``,
    never written into the text, so each build still gets its own."""
    exec(_code(source), env)
    kernel = env["kernel"]
    kernel.source = source
    return kernel


def _like_regex(pattern: str) -> "re.Pattern":
    out = "^"
    for char in pattern:
        if char == "%":
            out += ".*"
        elif char == "_":
            out += "."
        else:
            out += re.escape(char)
    return re.compile(out + "$", re.DOTALL)


def _tuple(items: Sequence[str]) -> str:
    return "(%s%s)" % (", ".join(items), "," if len(items) == 1 else "")


class _Emitter:
    """``Expr`` -> source over ``r``, dispatched on the node's class name."""

    def __init__(self, positions: Dict[str, int]):
        self.positions = positions
        self.env: Dict[str, Any] = {}

    def bind(self, value: Any) -> str:
        name = "k%d" % len(self.env)
        self.env[name] = value
        return name

    def emit(self, node: Any, truth: bool = False) -> str:
        """``truth``: the consumer only tests the value, so ``and``/``or``
        need not be coerced to the real ``bool`` a projected column gets."""
        kind = type(node).__name__.lower()
        method = getattr(self, "_" + kind, None)
        if method is None:
            raise TypeError("cannot compile %r" % (node,))
        source = method(node)
        return "bool" + source if kind == "logic" and not truth else source

    def _col(self, node) -> str:
        try:
            return "r[%d]" % self.positions[node.name]
        except KeyError:
            raise KeyError("column %r not in relation %s"
                           % (node.name, sorted(self.positions))) from None

    def _const(self, node) -> str:
        return self.bind(node.value)

    def _cmp(self, node) -> str:
        if node.op not in _OPERATORS:
            raise KeyError(node.op)
        return "(%s %s %s)" % (self.emit(node.left), node.op, self.emit(node.right))

    _arith = _cmp

    def _logic(self, node) -> str:
        parts = [self.emit(arg, True) for arg in node.args]
        joiner = " and " if node.op == "and" else " or "
        return "(%s)" % (joiner.join(parts) or str(node.op == "and"))

    def _not(self, node) -> str:
        return "(not %s)" % self.emit(node.arg, True)

    def _between(self, node) -> str:  # low, column, high: evaluated in that order
        return "(%s <= %s < %s)" % (
            self.emit(node.low), self.emit(node.column), self.emit(node.high))

    def _inlist(self, node) -> str:
        return "(%s in %s)" % (self.emit(node.column),
                               self.bind(frozenset(node.values)))

    def _like(self, node) -> str:
        return "(%s(%s) is %sNone)" % (
            self.bind(_like_regex(node.pattern).match), self.emit(node.column),
            "" if node.negated else "not ")

    def _case(self, node) -> str:
        source = self.emit(node.default)
        for cond, value in reversed(node.whens):
            source = "(%s if %s else %s)" % (
                self.emit(value), self.emit(cond, True), source)
        return source

    def _func(self, node) -> str:
        args = [self.emit(arg) for arg in node.args]
        if node.fname == "year":
            return "%s(%s + %d).year" % (
                self.bind(date.fromordinal), args[0], _EPOCH_ORDINAL)
        if node.fname == "substring":
            text, start, length = args
            return "%s[%s - 1:%s - 1 + %s]" % (text, start, start, length)
        raise TypeError("unknown function %r" % node.fname)


def compile_expr(expr: Any, positions: Dict[str, int]) -> Callable[[tuple], Any]:
    """The one-row entry point: ``fn(row_tuple) -> value``."""
    emitter = _Emitter(positions)
    return build("def kernel(r): return %s" % emitter.emit(expr), emitter.env)


def select(positions: Dict[str, int], pred: Any = None,
           exprs: Optional[Sequence[Any]] = None) -> Callable[[List[tuple]], List[tuple]]:
    """Filter and projection fused: ``kernel(rows)`` -> ``tuple(exprs)`` of
    every row passing ``pred``.  ``pred=None`` keeps every row (a pure
    projection), ``exprs=None`` the whole row (a pure filter)."""
    emitter = _Emitter(positions)
    item = "r"
    if exprs is not None:
        items = [emitter.emit(expr) for expr in exprs]
        if items != ["r[%d]" % i for i in range(len(positions))]:
            item = _tuple(items)
    cond = "" if pred is None else " if %s" % emitter.emit(pred, True)
    return build("def kernel(rows): return [%s for r in rows%s]" % (item, cond),
                 emitter.env)


def merge(left_cols: Sequence[str], right_cols: Sequence[str],
          want: Optional[Sequence[str]] = None,
          probing: Optional[Tuple[str, int]] = None) -> Tuple[List[str], Callable]:
    """Join output: ``(columns, kernel(ls, rs))``, one row per pair of
    ``ls`` x ``rs``.  With ``probing=(side, pos)`` that side (``"l"`` or
    ``"r"``) iterates and the other argument is a hash table ``{key: rows}``
    looked up with its column ``pos`` — the whole hash-join probe loop.

    Duplicate column names keep the left side's copy (TPC-H column names
    are globally unique, so this only matters for self-joins, which rename
    first).
    """
    if want is None:
        right_keep = [c for c in right_cols if c not in left_cols]
        columns = list(left_cols) + right_keep
        item = "l + " + _tuple(["r[%d]" % right_cols.index(c) for c in right_keep])
    else:
        left_map = {c: i for i, c in enumerate(left_cols)}
        right_map = {c: i for i, c in enumerate(right_cols)}
        columns, items = list(want), []
        for column in want:
            if column in left_map:
                items.append("l[%d]" % left_map[column])
            elif column in right_map:
                items.append("r[%d]" % right_map[column])
            else:
                raise KeyError("join output column %r not available" % column)
        item = _tuple(items)
    loops = "for l in ls for r in rs"
    if probing is not None and probing[0] == "l":
        loops = "for l in ls for r in rs.get(l[%d], ())" % probing[1]
    elif probing is not None:
        loops = "for r in rs for l in ls.get(r[%d], ())" % probing[1]
    return columns, build("def kernel(ls, rs): return [%s %s]" % (item, loops), {})


#: kind -> (initial state, update statement) over a slot ``{s}`` and the
#: row's value ``{v}``.  The one state format — what ScanAggregate ships: a
#: slot starts at None ("no row yet") and takes the first value as it is, so
#: partials merge associatively and an integer sum stays an integer.
#: ``count_distinct`` is a value set: host-side only, it never ships.
_MINMAX = "v = {v}; {s} = v if {s} is None else %s({s}, v)"
_UPDATES = {
    "count": ("None", "{s} = ({s} or 0) + 1"),
    "sum": ("None", "v = {v}; {s} = v if {s} is None else {s} + v"),
    "min": ("None", _MINMAX % "min"),
    "max": ("None", _MINMAX % "max"),
    "count_distinct": ("set()", "{s}.add({v})"),
}


def fold(positions: Dict[str, int], group_idx: Sequence[int],
         aggs: Sequence[Tuple[str, str, Any]]) -> Callable[[dict, List[tuple]], dict]:
    """Grouped aggregation: ``kernel(states, rows)`` folds rows into
    ``{group key: [state per (name, kind, expr) slot]}`` and returns it."""
    emitter = _Emitter(positions)
    inits, updates = [], []
    for slot, (_name, kind, expr) in enumerate(aggs):
        if kind not in _UPDATES:
            raise ValueError("unsupported aggregate kind %r" % kind)
        init, update = _UPDATES[kind]
        inits.append(init)
        updates.append("        " + update.format(
            s="s[%d]" % slot, v=None if expr is None else emitter.emit(expr)))
    lines = [
        "def kernel(states, rows):",
        "    get = states.get",
        "    for r in rows:",
        "        k = %s" % _tuple(["r[%d]" % i for i in group_idx]),
        "        s = get(k)",
        "        if s is None:",
        "            s = states[k] = [%s]" % ", ".join(inits),
    ] + updates + ["    return states"]
    return build("\n".join(lines), emitter.env)
