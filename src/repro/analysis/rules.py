"""AST lint rules RPR001-RPR007 and RPR2xx: simulator invariants.

One pass over a module's AST checks every rule; each checker is a method of
:class:`_LintVisitor`.  The rules exist because the simulator's contract is
*bit determinism*: the same seed and config must produce the same event
trace, or every calibrated number in EXPERIMENTS.md and every ``REPRO:``
replay line from the differential harness silently loses its meaning.

Rules (catalogue and rationale in :mod:`repro.analysis.findings`):

* RPR001 — wall-clock reads (``time.time`` & friends) outside ``instrument/``.
* RPR002 — module-level / unseeded randomness (``random.*``, ``numpy.random.*``).
* RPR003 — iteration over unordered collections (sets, ``dict.keys()``).
* RPR004 — time-unit discipline (unit suffixes, mixed-unit arithmetic).
* RPR005 — blocking I/O inside generator fibers.
* RPR006 — simulator events created and discarded without being awaited.
* RPR007 — ``eval``/``exec``/``compile`` outside the kernel generator.
* RPR201 — SSDlet ``run()`` bodies that never yield (core monopolization).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

__all__ = ["check_module", "RULE_SCOPES"]

#: Path fragments that exempt a file from a rule (checked per rule ID).
RULE_SCOPES: Dict[str, Tuple[str, ...]] = {
    # instrument/ measures the simulator itself (wall-clock is its job).
    "RPR001": ("instrument",),
    # The one module that executes generated source (batch kernels, codecs).
    "RPR007": ("db/kernels.py",),
}

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module-level random API: hidden global state, not replayable by seed.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "vonmisesvariate",
    "weibullvariate", "seed",
})

_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.system", "os.popen",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.request",
})

_TIMING_STEMS = frozenset({
    "timeout", "delay", "latency", "duration", "interval",
    "backoff", "elapsed", "period",
})

_UNIT_TOKENS = frozenset({"ns", "us", "ms", "s", "sec", "secs", "seconds"})

#: Unit conversion helpers (repro.sim.units): call result carries this unit.
_CONVERSION_RESULT_UNIT = {
    "us_to_ns": "ns", "ms_to_ns": "ns", "s_to_ns": "ns", "transfer_ns": "ns",
    "ns_to_us": "us", "ns_to_s": "s",
}

_NORMALIZED_UNIT = {"sec": "s", "secs": "s", "seconds": "s"}

#: Event factories whose result must be awaited (or explicitly kept).
_EVENT_FACTORY_ATTRS = frozenset({"timeout", "event", "process"})
_EVENT_COMBINATORS = frozenset({"all_of", "any_of"})

#: Base-class name suffixes that mark a class as an SSDlet (direct bases
#: only — a heuristic, but subclass chains in this codebase keep the suffix).
_SSDLET_BASE_SUFFIXES = ("SSDLet", "SSDlet")


def check_module(tree: ast.Module, path: str) -> List[Finding]:
    """Run every lint rule over one parsed module."""
    visitor = _LintVisitor(path)
    visitor.visit(tree)
    return visitor.findings


# --------------------------------------------------------------------------
def _dotted_name(node: ast.expr) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _contains_yield(node: ast.AST) -> bool:
    """Does this function body yield (ignoring nested defs)?"""
    for child in _walk_same_scope(node):
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _walk_same_scope(func: ast.AST):
    """Walk a function's statements without descending into nested defs."""
    stack = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_abstract_stub(func: ast.AST) -> bool:
    """Body is only a docstring plus raise/pass/... (an intentional stub)."""
    body = list(getattr(func, "body", []))
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    return all(
        isinstance(stmt, (ast.Raise, ast.Pass))
        or (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in body)


def _name_unit(name: str) -> Optional[str]:
    """Unit suffix carried by a name, normalized ('s'|'ms'|'us'|'ns')."""
    parts = name.lower().split("_")
    for part in reversed(parts):
        if part in _UNIT_TOKENS:
            return _NORMALIZED_UNIT.get(part, part)
    return None


def _name_is_timing(name: str) -> bool:
    return any(part in _TIMING_STEMS for part in name.lower().split("_"))


def _is_numeric_expr(node: ast.expr) -> bool:
    """Conservatively: literal numbers and arithmetic over them."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_numeric_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_numeric_expr(node.left) or _is_numeric_expr(node.right)
    return False


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        #: local name -> canonical dotted prefix ("np" -> "numpy").
        self.aliases: Dict[str, str] = {}
        self._generator_depth = 0
        normalized = path.replace("\\", "/")
        self._skip_rules: Set[str] = {
            rule_id for rule_id, fragments in RULE_SCOPES.items()
            if any("/%s/" % frag in "/%s/" % normalized for frag in fragments)
        }

    # ------------------------------------------------------------- plumbing
    def _emit(self, rule: str, message: str, node: ast.AST) -> None:
        if rule in self._skip_rules:
            return
        self.findings.append(Finding(
            rule, message, self.path,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
        ))

    def _resolve(self, dotted: Optional[str]) -> Optional[str]:
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical = self.aliases.get(head)
        if canonical is None:
            return dotted
        return canonical + ("." + rest if rest else "")

    # -------------------------------------------------------------- imports
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            self.aliases[local] = alias.name if alias.asname else local
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = "%s.%s" % (node.module, alias.name)
        self.generic_visit(node)

    # -------------------------------------------------------------- classes
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_ssdlet_class(node):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name == "run"
                        and not _contains_yield(item)
                        and not _is_abstract_stub(item)):
                    self._emit(
                        "RPR201",
                        "SSDlet run() never yields: the fiber would "
                        "monopolize a device core for its whole lifetime; "
                        "yield device events (I/O, ports, compute) or waive "
                        "explicitly",
                        item,
                    )
        self.generic_visit(node)

    def _is_ssdlet_class(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            dotted = self._resolve(_dotted_name(base))
            if dotted is None:
                continue
            if dotted.rsplit(".", 1)[-1].endswith(_SSDLET_BASE_SUFFIXES):
                return True
        return False

    # ------------------------------------------------------------ functions
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_params(node)
        is_generator = _contains_yield(node)
        self._generator_depth += is_generator
        self.generic_visit(node)
        self._generator_depth -= is_generator

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_params(self, node: ast.FunctionDef) -> None:
        args = node.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        numeric_by_name: Set[str] = set()
        pos_defaults = args.defaults
        positional = list(args.posonlyargs) + list(args.args)
        for param, default in zip(positional[len(positional) - len(pos_defaults):],
                                  pos_defaults):
            if default is not None and _is_numeric_expr(default):
                numeric_by_name.add(param.arg)
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and _is_numeric_expr(default):
                numeric_by_name.add(param.arg)
        for param in params:
            annotation = getattr(param, "annotation", None)
            annotated_numeric = (
                isinstance(annotation, ast.Name)
                and annotation.id in ("int", "float")
            )
            if not annotated_numeric and param.arg not in numeric_by_name:
                continue
            if _name_is_timing(param.arg) and _name_unit(param.arg) is None:
                self._emit(
                    "RPR004",
                    "timing-valued parameter %r lacks a unit suffix "
                    "(_ns/_us/_ms/_s)" % param.arg,
                    param,
                )

    # ---------------------------------------------------------------- calls
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._resolve(_dotted_name(node.func))
        if dotted is not None:
            self._check_wall_clock(dotted, node)
            self._check_randomness(dotted, node)
            self._check_dynamic_code(dotted, node)
            if self._generator_depth > 0:
                self._check_blocking(dotted, node)
        self.generic_visit(node)

    def _check_wall_clock(self, dotted: str, node: ast.Call) -> None:
        if dotted in _WALL_CLOCK_CALLS:
            self._emit(
                "RPR001",
                "wall-clock read %s() in simulator code; use Simulator.now "
                "(simulated ns)" % dotted,
                node,
            )

    def _check_randomness(self, dotted: str, node: ast.Call) -> None:
        head, _, tail = dotted.partition(".")
        if head == "random" and tail in _GLOBAL_RANDOM_FNS:
            self._emit(
                "RPR002",
                "module-level random.%s() uses hidden global state; draw from "
                "an explicit random.Random(seed)" % tail,
                node,
            )
        elif dotted in ("random.Random", "random.SystemRandom") and not (
                node.args or node.keywords):
            self._emit(
                "RPR002",
                "%s() without a seed is wall-entropy seeded; pass an explicit "
                "seed" % dotted,
                node,
            )
        elif dotted.startswith("numpy.random."):
            fn = dotted[len("numpy.random."):]
            if fn == "default_rng" and (node.args or node.keywords):
                return  # seeded generator construction is the sanctioned form
            self._emit(
                "RPR002",
                "numpy.random.%s() uses the global (or unseeded) NumPy "
                "stream; use numpy.random.default_rng(seed)" % fn,
                node,
            )

    def _check_dynamic_code(self, dotted: str, node: ast.Call) -> None:
        if dotted in ("eval", "exec", "compile"):
            self._emit(
                "RPR007",
                "%s() outside repro.db.kernels; emit source through "
                "kernels.build so generated code has one audited entry" % dotted,
                node,
            )

    def _check_blocking(self, dotted: str, node: ast.Call) -> None:
        if dotted in _BLOCKING_CALLS or dotted in ("open", "input"):
            self._emit(
                "RPR005",
                "blocking call %s() inside a generator fiber stalls the whole "
                "event loop in wall-clock time" % dotted,
                node,
            )

    # ------------------------------------------------------------ iteration
    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def _check_unordered_iter(self, iter_node: ast.expr) -> None:
        reason = self._unordered_reason(iter_node)
        if reason is not None:
            self._emit(
                "RPR003",
                "iteration over %s visits elements in hash order "
                "(PYTHONHASHSEED-dependent); wrap in sorted() or iterate an "
                "insertion-ordered structure" % reason,
                iter_node,
            )

    def _unordered_reason(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal" if isinstance(node, ast.Set) else "a set comprehension"
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
            return (self._unordered_reason(node.left)
                    or self._unordered_reason(node.right))
        if isinstance(node, ast.Call):
            dotted = self._resolve(_dotted_name(node.func))
            if dotted in ("set", "frozenset"):
                return "%s(...)" % dotted
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "keys" and not node.args:
                    return ".keys() of a dict (id-keyed dicts iterate in " \
                           "insertion order of object creation)"
                if node.func.attr in ("union", "intersection", "difference",
                                      "symmetric_difference"):
                    inner = self._unordered_reason(node.func.value)
                    if inner is not None:
                        return "a set .%s(...)" % node.func.attr
            if isinstance(node.func, ast.Name) and node.func.id in (
                    "list", "tuple", "iter", "reversed") and node.args:
                return self._unordered_reason(node.args[0])
        return None

    # ------------------------------------------------------- unit discipline
    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_numeric_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._check_timing_name(target.id, target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        numeric_ann = (isinstance(node.annotation, ast.Name)
                       and node.annotation.id in ("int", "float"))
        if isinstance(node.target, ast.Name) and (
                numeric_ann or (node.value is not None
                                and _is_numeric_expr(node.value))):
            self._check_timing_name(node.target.id, node.target)
        self.generic_visit(node)

    def _check_timing_name(self, name: str, node: ast.AST) -> None:
        if _name_is_timing(name) and _name_unit(name) is None:
            self._emit(
                "RPR004",
                "timing-valued name %r lacks a unit suffix (_ns/_us/_ms/_s)"
                % name,
                node,
            )

    def _expr_unit(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = _dotted_name(node)
            if dotted is not None:
                return _name_unit(dotted.rsplit(".", 1)[-1])
            if isinstance(node, ast.Attribute):
                return _name_unit(node.attr)
            return None
        if isinstance(node, ast.Call):
            dotted = self._resolve(_dotted_name(node.func))
            if dotted is not None:
                tail = dotted.rsplit(".", 1)[-1]
                if tail in _CONVERSION_RESULT_UNIT:
                    return _CONVERSION_RESULT_UNIT[tail]
                return _name_unit(tail)
        return None

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # Only additive ops force unit agreement; * and / legitimately change
        # dimensions (rates, scaling factors).
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_unit_agreement(node.left, node.right, node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for left, right in zip(operands, operands[1:]):
            self._check_unit_agreement(left, right, node)
        self.generic_visit(node)

    def _check_unit_agreement(self, left: ast.expr, right: ast.expr,
                              node: ast.AST) -> None:
        left_unit = self._expr_unit(left)
        right_unit = self._expr_unit(right)
        if left_unit and right_unit and left_unit != right_unit:
            self._emit(
                "RPR004",
                "mixed-unit expression: %s operand combined with %s operand "
                "without conversion" % (left_unit, right_unit),
                node,
            )

    # ------------------------------------------------------ discarded events
    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            factory = self._event_factory_label(value)
            if factory is not None:
                self._emit(
                    "RPR006",
                    "%s result discarded: the Event is scheduled but nothing "
                    "ever waits on it; yield it, assign it, or waive "
                    "explicitly" % factory,
                    node,
                )
        self.generic_visit(node)

    def _event_factory_label(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _EVENT_COMBINATORS:
            return "%s(...)" % func.id
        if isinstance(func, ast.Attribute) and func.attr in _EVENT_FACTORY_ATTRS:
            receiver = _dotted_name(func.value)
            if receiver is not None and (
                    receiver == "sim" or receiver.endswith(".sim")):
                return "%s.%s(...)" % (receiver, func.attr)
        return None
