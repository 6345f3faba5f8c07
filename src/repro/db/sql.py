"""A SQL front end for MiniDB.

Supports the slice of SQL the paper's workloads need::

    SELECT l_orderkey, l_shipdate, l_linenumber
    FROM lineitem
    WHERE l_shipdate = '1995-01-17'

    SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)) AS revenue
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE l_shipdate BETWEEN '1995-09-01' AND '1995-09-30'
      AND p_type LIKE 'PROMO%'
    GROUP BY l_returnflag
    ORDER BY revenue DESC
    LIMIT 10

Grammar: SELECT (expr [AS name] | AGG(expr) | COUNT(*)) , ... FROM table
[JOIN table ON col = col]* [WHERE expr] [GROUP BY cols] [HAVING expr]
[ORDER BY expr-name [ASC|DESC], ...] [LIMIT n].

The compiler pushes single-table WHERE conjuncts down into the table scans
— which is exactly where the Biscuit engine's NDP planner picks them up —
and routes cross-table equality conjuncts into the join graph.  String
literals compared against ``date`` columns are converted with the
'YYYY-MM-DD' calendar, so the paper's Fig. 8 queries paste straight in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.db.catalog import date_to_int
from repro.db.executor import Engine, Rel, TableRef
from repro.db.expr import (
    Arith,
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    InList,
    Like,
    Logic,
    Not,
    and_,
    columns_of,
)

__all__ = ["SqlError", "parse", "compile_sql", "CompiledQuery",
           "execute_statement", "run_sql", "sql_query", "render_plan",
           "run_explain", "to_sql"]

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<string>'(?:[^']|'')*')
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|[=<>(),.*/+-])
    )
""", re.VERBOSE)

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "AS", "JOIN", "ON", "ASC",
    "DESC", "SUM", "COUNT", "AVG", "MIN", "MAX", "DISTINCT",
}
AGG_FUNCS = {"SUM": "sum", "COUNT": "count", "AVG": "avg", "MIN": "min", "MAX": "max"}


class SqlError(Exception):
    """Syntax or binding error in a SQL statement."""


@dataclass
class Token:
    kind: str  # number | string | name | keyword | op | end
    text: str


def _lex(text: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match or match.end() == position:
            rest = text[position:].strip()
            if not rest:
                break
            raise SqlError("cannot tokenize near %r" % rest[:20])
        position = match.end()
        if match.lastgroup == "name":
            word = match.group("name")
            if word.upper() in KEYWORDS:
                tokens.append(Token("keyword", word.upper()))
            else:
                tokens.append(Token("name", word))
        elif match.lastgroup == "number":
            tokens.append(Token("number", match.group("number")))
        elif match.lastgroup == "string":
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(Token("string", raw))
        else:
            tokens.append(Token("op", match.group("op")))
    tokens.append(Token("end", ""))
    return tokens


# ----------------------------------------------------------------- AST bits
@dataclass
class SelectItem:
    expr: Optional[Expr]  # None for COUNT(*) / aggregate-wrapped items
    name: str
    agg: Optional[str] = None  # sum/count/avg/min/max
    agg_arg: Optional[Expr] = None
    distinct: bool = False


@dataclass
class Query:
    items: List[SelectItem]
    tables: List[str]
    join_conditions: List[Tuple[str, str]]
    where: Optional[Expr]
    group_by: List[str]
    having: Optional[Expr]
    order_by: List[Tuple[str, bool]]  # (output name, descending)
    limit: Optional[int]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0

    # ------------------------------------------------------------ utilities
    def peek(self) -> Token:
        return self.tokens[self.position]

    def next(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            raise SqlError(
                "expected %s near %r" % (text or kind, self.peek().text)
            )
        return token

    # -------------------------------------------------------------- grammar
    def parse_query(self) -> Query:
        self.expect("keyword", "SELECT")
        items = [self.parse_select_item()]
        while self.accept("op", ","):
            items.append(self.parse_select_item())
        self.expect("keyword", "FROM")
        tables = [self.expect("name").text]
        join_conditions: List[Tuple[str, str]] = []
        while self.accept("keyword", "JOIN"):
            tables.append(self.expect("name").text)
            self.expect("keyword", "ON")
            left = self.expect("name").text
            self.expect("op", "=")
            right = self.expect("name").text
            join_conditions.append((left, right))
        where = None
        if self.accept("keyword", "WHERE"):
            where = self.parse_or()
        group_by: List[str] = []
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_by.append(self.expect("name").text)
            while self.accept("op", ","):
                group_by.append(self.expect("name").text)
        having = None
        if self.accept("keyword", "HAVING"):
            having = self.parse_or()
        order_by: List[Tuple[str, bool]] = []
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order_by.append(self.parse_order_item())
            while self.accept("op", ","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept("keyword", "LIMIT"):
            text = self.expect("number").text
            if not text.isdigit():
                raise SqlError("LIMIT takes a whole number, got %r" % text)
            limit = int(text)
        self.expect("end")
        return Query(items, tables, join_conditions, where, group_by,
                     having, order_by, limit)

    def parse_order_item(self) -> Tuple[str, bool]:
        name = self.expect("name").text
        descending = False
        if self.accept("keyword", "DESC"):
            descending = True
        else:
            self.accept("keyword", "ASC")
        return name, descending

    def parse_select_item(self) -> SelectItem:
        token = self.peek()
        if token.kind == "keyword" and token.text in AGG_FUNCS:
            func = self.next().text
            self.expect("op", "(")
            distinct = bool(self.accept("keyword", "DISTINCT"))
            if func == "COUNT" and self.accept("op", "*"):
                argument = None
            else:
                argument = self.parse_additive()
            self.expect("op", ")")
            name = self.parse_alias() or func.lower()
            return SelectItem(None, name, agg=AGG_FUNCS[func],
                              agg_arg=argument, distinct=distinct)
        expr = self.parse_additive()
        name = self.parse_alias()
        if name is None:
            if isinstance(expr, Col):
                name = expr.name
            else:
                raise SqlError("computed select items need AS <name>")
        return SelectItem(expr, name)

    def parse_alias(self) -> Optional[str]:
        if self.accept("keyword", "AS"):
            return self.expect("name").text
        return None

    # ---------------------------------------------------- boolean expression
    def parse_or(self) -> Expr:
        left = self.parse_and()
        parts = [left]
        while self.accept("keyword", "OR"):
            parts.append(self.parse_and())
        if len(parts) == 1:
            return left
        return Logic("or", tuple(parts))

    def parse_and(self) -> Expr:
        parts = [self.parse_not()]
        while self.accept("keyword", "AND"):
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        return and_(*parts)

    def parse_not(self) -> Expr:
        if self.accept("keyword", "NOT"):
            return Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        if self.accept("op", "("):
            inner = self.parse_or()
            self.expect("op", ")")
            return inner
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "op" and token.text in ("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self.next().text
            right = self.parse_additive()
            mapping = {"=": "==", "<>": "!=", "!=": "!="}
            return Cmp(mapping.get(op, op), left, right)
        if token.kind == "keyword" and token.text == "BETWEEN":
            self.next()
            low = self.parse_additive()
            self.expect("keyword", "AND")
            high = self.parse_additive()
            # SQL BETWEEN is inclusive on both ends.
            return and_(Cmp(">=", left, low), Cmp("<=", left, high))
        if token.kind == "keyword" and token.text == "IN":
            self.next()
            self.expect("op", "(")
            values = [self.parse_literal()]
            while self.accept("op", ","):
                values.append(self.parse_literal())
            self.expect("op", ")")
            return InList(left, tuple(value.value for value in values))
        if token.kind == "keyword" and token.text in ("LIKE", "NOT"):
            negated = self.accept("keyword", "NOT") is not None
            self.expect("keyword", "LIKE")
            return Like(left, self.expect("string").text, negated=negated)
        raise SqlError("expected a predicate near %r" % token.text)

    # ------------------------------------------------------ value expression
    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            if self.accept("op", "+"):
                left = Arith("+", left, self.parse_multiplicative())
            elif self.accept("op", "-"):
                left = Arith("-", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_primary()
        while True:
            if self.accept("op", "*"):
                left = Arith("*", left, self.parse_primary())
            elif self.accept("op", "/"):
                left = Arith("/", left, self.parse_primary())
            else:
                return left

    def parse_primary(self) -> Expr:
        if self.accept("op", "-"):
            inner = self.parse_primary()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Arith("-", Const(0), inner)
        if self.accept("op", "("):
            inner = self.parse_additive()
            self.expect("op", ")")
            return inner
        token = self.peek()
        if token.kind in ("number", "string"):
            return self.parse_literal()
        if token.kind == "name":
            return Col(self.next().text)
        raise SqlError("expected a value near %r" % token.text)

    def parse_literal(self) -> Const:
        token = self.next()
        if token.kind == "number":
            is_float = any(ch in token.text for ch in ".eE")
            value = float(token.text) if is_float else int(token.text)
            return Const(value)
        if token.kind == "string":
            return Const(token.text)
        raise SqlError("expected a literal near %r" % token.text)


def parse(text: str) -> Query:
    """Parse a SELECT statement into a :class:`Query`."""
    return _Parser(_lex(text)).parse_query()


# ------------------------------------------------------------------ binding
def _bind_dates(expr: Expr, column_type) -> Expr:
    """Convert 'YYYY-MM-DD' string literals compared to date columns."""
    def convert(node: Expr, expected_date: bool) -> Expr:
        if isinstance(node, Const):
            if (expected_date and isinstance(node.value, str)
                    and _DATE_RE.match(node.value)):
                return Const(date_to_int(node.value))
            return node
        if isinstance(node, Cmp):
            left_date = _is_date_col(node.left, column_type)
            right_date = _is_date_col(node.right, column_type)
            return Cmp(node.op, convert(node.left, right_date),
                       convert(node.right, left_date))
        if isinstance(node, Logic):
            return Logic(node.op, tuple(convert(a, False) for a in node.args))
        if isinstance(node, Not):
            return Not(convert(node.arg, False))
        if isinstance(node, Between):
            is_date = _is_date_col(node.column, column_type)
            return Between(convert(node.column, False),
                           convert(node.low, is_date), convert(node.high, is_date))
        if isinstance(node, InList):
            if _is_date_col(node.column, column_type):
                return InList(node.column, tuple(
                    date_to_int(v) if isinstance(v, str) and _DATE_RE.match(v) else v
                    for v in node.values
                ))
            return node
        if isinstance(node, Arith):
            return Arith(node.op, convert(node.left, False), convert(node.right, False))
        return node

    return convert(expr, False)


def _is_date_col(node: Expr, column_type) -> bool:
    return isinstance(node, Col) and column_type(node.name) == "date"


# ---------------------------------------------------------------- compiling
@dataclass
class CompiledQuery:
    """The bound, pushdown-split form of a statement (input to execution
    and to EXPLAIN)."""

    query: Query
    refs: List[TableRef]
    join_conditions: List[Tuple[str, str]]
    leftovers: List[Expr]
    having: Optional[Expr]


def compile_sql(engine: Engine, text: str) -> CompiledQuery:
    """Parse, bind and split a statement against ``engine``'s catalog.

    Single-table WHERE conjuncts are pushed into the scans (feeding the NDP
    planner under the Biscuit engine); cross-table equality conjuncts join
    the join graph; the rest filter after the joins.
    """
    query = parse(text)
    db = engine.db
    for table in query.tables:
        if table not in db.tables:
            raise SqlError("unknown table %r" % table)
    column_owner: Dict[str, str] = {}
    column_type: Dict[str, str] = {}
    for table in query.tables:
        schema = db.table(table).schema
        for column in schema.column_names():
            if column in column_owner:
                raise SqlError("ambiguous column %r" % column)
            column_owner[column] = table
            column_type[column] = schema.column_type(column)

    def type_of(name: str) -> str:
        return column_type.get(name, "")

    where = _bind_dates(query.where, type_of) if query.where is not None else None
    having = _bind_dates(query.having, type_of) if query.having is not None else None

    # Split WHERE into per-table pushdowns, join conditions, and leftovers.
    table_preds: Dict[str, List[Expr]] = {t: [] for t in query.tables}
    join_conditions = list(query.join_conditions)
    leftovers: List[Expr] = []
    conjuncts: List[Expr] = []
    if where is not None:
        conjuncts = list(where.args) if (
            isinstance(where, Logic) and where.op == "and") else [where]
    for conjunct in conjuncts:
        used = columns_of(conjunct)
        unknown = [c for c in used if c not in column_owner]
        if unknown:
            raise SqlError("unknown column %r" % unknown[0])
        owners = {column_owner[c] for c in used}
        if len(owners) == 1:
            table_preds[owners.pop()].append(conjunct)
        elif (isinstance(conjunct, Cmp) and conjunct.op == "=="
                and isinstance(conjunct.left, Col) and isinstance(conjunct.right, Col)):
            join_conditions.append((conjunct.left.name, conjunct.right.name))
        else:
            leftovers.append(conjunct)

    # Columns each scan must produce: everything referenced anywhere.
    needed: Dict[str, set] = {t: set() for t in query.tables}
    def need(expr: Optional[Expr]):
        if expr is None:
            return
        for column in columns_of(expr):
            needed[column_owner[column]].add(column)
    for item in query.items:
        need(item.expr)
        need(item.agg_arg)
    for conjunct in leftovers:
        need(conjunct)
    # HAVING references *output* columns (aggregate names / group keys), so
    # it binds against the aggregated relation, not the base tables.
    for a, b in join_conditions:
        for column in (a, b):
            if column in column_owner:
                needed[column_owner[column]].add(column)
    for column in query.group_by:
        if column in column_owner:
            needed[column_owner[column]].add(column)

    refs = []
    for table in query.tables:
        pred = and_(*table_preds[table]) if table_preds[table] else None
        schema_cols = db.table(table).schema.column_names()
        cols = [c for c in schema_cols if c in needed[table]] or schema_cols[:1]
        refs.append(TableRef(table, pred, cols))
    return CompiledQuery(query, refs, join_conditions, leftovers, having)


def _aggregate_plan(query: Query) -> List[Tuple[str, str, Optional[Expr]]]:
    """The (name, kind, expr) aggregates of a grouped statement, validated."""
    aggs = []
    for item in query.items:
        if item.agg:
            kind = item.agg
            if item.distinct:
                if kind != "count":
                    raise SqlError("DISTINCT only supported inside COUNT()")
                kind = "count_distinct"
            aggs.append((item.name, kind, item.agg_arg))
        elif not (isinstance(item.expr, Col) and item.expr.name in query.group_by):
            raise SqlError(
                "non-aggregated select item %r must appear in GROUP BY" % item.name
            )
    return aggs


def _source_order(query: Query) -> Optional[List[Tuple[str, bool]]]:
    """ORDER BY mapped onto base columns, or None when not pushable.

    Pushable when every sort key names a plain-column select item: an
    access path that sorts (and top-k-limits) at the source then hands back
    rows whose order the projection preserves.
    """
    by_name = {item.name: item for item in query.items}
    mapped: List[Tuple[str, bool]] = []
    for name, descending in query.order_by:
        item = by_name.get(name)
        if item is None or item.agg or not isinstance(item.expr, Col):
            return None
        mapped.append((item.expr.name, descending))
    return mapped


def execute_statement(site, compiled: CompiledQuery) -> Generator:
    """Fiber: run a compiled statement on ``site`` — the one interpreter.

    This fiber owns aggregate validation, the SELECT-list reorder,
    projection, HAVING, the ORDER BY check, sort and LIMIT.  A *site*
    supplies where the rows come from and which CPU pays for the rest
    (DESIGN.md, "Query pipeline"):

    * ``fetch(ref)`` / ``multi_join(refs, conditions)`` — the access paths;
    * ``scan_aggregate(ref, group_by, aggs)`` — a grouped single-table scan
      (the site decides whether it is pushed down);
    * ``fetch_sorted`` — None, or ``fetch_sorted(ref, order_by, limit)``
      when the access path can return rows already ordered and top-k cut;
    * ``filter`` / ``project`` / ``aggregate`` / ``sort`` —
      :class:`repro.db.executor.RelOps`, charged to the site's CPU.

    :class:`Engine` is a site; so is the fleet's ``ClusterExecutor``.
    """
    query = compiled.query
    refs = compiled.refs
    having = compiled.having
    group_by = list(query.group_by)
    grouped = bool(group_by) or any(item.agg for item in query.items)
    aggs = _aggregate_plan(query) if grouped else []
    one_scan = len(refs) == 1 and not compiled.leftovers
    source_order = None
    if (one_scan and not grouped and query.order_by and having is None
            and site.fetch_sorted is not None):
        source_order = _source_order(query)

    if grouped and one_scan:
        rel = yield from site.scan_aggregate(refs[0], group_by, aggs)
    else:
        if source_order is not None:
            rel = yield from site.fetch_sorted(
                refs[0], source_order, query.limit)
        elif len(refs) == 1:
            rel = yield from site.fetch(refs[0])
        else:
            rel = yield from site.multi_join(refs, compiled.join_conditions)
        for conjunct in compiled.leftovers:
            rel = yield from site.filter(rel, conjunct)
        if grouped:
            rel = yield from site.aggregate(rel, group_by, aggs)
    if grouped:
        # Reorder to the SELECT list (grouped columns keep their names).
        out_names = [item.name for item in query.items]
        idx = [rel.position(name) for name in out_names]
        rel = Rel(out_names, [tuple(row[i] for i in idx) for row in rel.rows])
    else:
        exprs = [(item.name, item.expr) for item in query.items]
        rel = yield from site.project(rel, exprs)

    if having is not None:
        rel = yield from site.filter(rel, having)
    for name, _ in query.order_by:
        if name not in rel.positions:
            raise SqlError("ORDER BY %r is not an output column" % name)
    if query.order_by and source_order is None:
        rel = yield from site.sort(rel, list(query.order_by), limit=query.limit)
    elif query.limit is not None:
        # Also cuts behind a source-ordered fetch (already top-k: a no-op).
        rel = Rel(rel.columns, rel.rows[:query.limit])
    return rel


def sql_query(engine: Engine, text: str) -> Generator:
    """Fiber: compile and execute a SQL statement on ``engine``."""
    rel = yield from execute_statement(engine, compile_sql(engine, text))
    return rel


def run_sql(engine: Engine, text: str, cold: bool = True):
    """Run a SQL statement to completion; returns (Rel, elapsed seconds)."""
    engine.begin_query(cold=cold)
    system = engine.system
    start = system.sim.now_s
    with system.sim.scope("db/q%d" % engine.query_seq):
        rel = system.run_fiber(sql_query(engine, text), name="sql")
    return rel, system.sim.now_s - start


# ------------------------------------------------------------------ explain
def render_plan(engine: Engine, compiled: Optional[CompiledQuery] = None,
                title: str = "SELECT") -> str:
    """EXPLAIN: the plan ``engine``'s last query ran, as it ran.

    The table lines come from :attr:`Engine.plan`, the record the engine
    writes while it executes: each access path (with the Biscuit planner's
    offload decision and reason), how the table joined the running
    relation, and the generated kernels it ran.  Nothing here re-plans:
    whether an indexed inner table is probed or hash-joined depends on the
    driving relation's real cardinality, which only running the query
    knows.  ``compiled`` adds the statement's post-join steps.
    """
    lines: List[str] = ["%s plan (%s engine)" % (title, engine.mode.value)]
    for step in engine.plan:
        ref = step.ref
        detail = ""
        if ref.pred is not None:
            decision = step.decision
            if decision is None:
                detail = " [pushed filter]"
            elif decision.offload:
                detail = " [%s]" % decision.reason
            else:
                detail = " [pushed filter; no offload: %s]" % decision.reason
        role = "drive" if step.access in ("SeqScan", "NDPScan") else "join"
        lines.append("  %-5s %-22s %s%s" % (role, ref.name, step.access, detail))
        lines.extend(_kernel_lines({label: kernel for label, kernel
                                    in step.kernels.items() if label != "fold"}))
    if compiled is None:
        return "\n".join(lines)
    query = compiled.query
    for conjunct in compiled.leftovers:
        lines.append("  filter (post-join) %s" % to_sql(conjunct))
    if query.group_by or any(item.agg for item in query.items):
        aggregates = ", ".join(
            "%s(%s)" % (item.agg, item.name) for item in query.items if item.agg
        )
        lines.append("  aggregate by [%s]: %s" % (", ".join(query.group_by), aggregates))
        # The fold the pushdown gate ran, on the device or on the host.
        lines.extend(_kernel_lines({"fold": step.kernels["fold"]
                                    for step in engine.plan if "fold" in step.kernels}))
    if compiled.having is not None:
        lines.append("  having %s" % to_sql(compiled.having))
    if query.order_by:
        lines.append("  order by %s%s" % (
            ", ".join("%s %s" % (name, "DESC" if desc else "ASC")
                      for name, desc in query.order_by),
            " limit %d" % query.limit if query.limit is not None else "",
        ))
    elif query.limit is not None:
        lines.append("  limit %d" % query.limit)
    return "\n".join(lines)


def _kernel_lines(shown: Dict[str, Any]) -> List[str]:
    """``label  source`` per kernel, continuation lines aligned under it."""
    return ["        %-10s %s" % (label if number == 0 else "", line)
            for label, kernel in shown.items()
            for number, line in enumerate(kernel.source.splitlines())]


def run_explain(engine: Engine, text: str) -> str:
    """Run a statement to completion, then render the plan it ran."""
    run_sql(engine, text)
    return render_plan(engine, compile_sql(engine, text))


# ------------------------------------------------------------- SQL printing
def to_sql(expr: Expr) -> str:
    """Render an expression back to SQL text (EXPLAIN display, tests).

    Inverse of the parser for the supported grammar; date integers render
    as plain numbers (the textual calendar form is not recoverable without
    schema context).
    """
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, Const):
        if isinstance(expr.value, str):
            return "'%s'" % expr.value.replace("'", "''")
        return repr(expr.value)
    if isinstance(expr, Cmp):
        op = {"==": "=", "!=": "<>"}.get(expr.op, expr.op)
        return "%s %s %s" % (to_sql(expr.left), op, to_sql(expr.right))
    if isinstance(expr, Logic):
        joiner = " AND " if expr.op == "and" else " OR "
        return "(" + joiner.join(to_sql(arg) for arg in expr.args) + ")"
    if isinstance(expr, Not):
        return "NOT (%s)" % to_sql(expr.arg)
    if isinstance(expr, Between):
        # Internal Between is half-open; render the equivalent comparison.
        return "(%s >= %s AND %s < %s)" % (
            to_sql(expr.column), to_sql(expr.low),
            to_sql(expr.column), to_sql(expr.high),
        )
    if isinstance(expr, InList):
        return "%s IN (%s)" % (
            to_sql(expr.column),
            ", ".join(to_sql(Const(value)) for value in expr.values),
        )
    if isinstance(expr, Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return "%s %s '%s'" % (to_sql(expr.column), keyword,
                               expr.pattern.replace("'", "''"))
    if isinstance(expr, Arith):
        return "(%s %s %s)" % (to_sql(expr.left), expr.op, to_sql(expr.right))
    raise SqlError("cannot render %r as SQL" % (expr,))
