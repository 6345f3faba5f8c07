"""Interleaving sanitizer: yield-point race rules + tied-event conflicts.

Biscuit's programming model is cooperative fibers over SPSC ports: there is
no preemption, so fibers may share state without locks — *between* yields.
Every interleaving bug this repo has shipped and later fixed lived exactly
at that boundary: state read before a yield and trusted after it, objects
mutated after being handed to another fiber, grants leaked when an
exception arrived at a wait point, and same-timestamp event collisions
whose outcome silently depended on heap tie-breaking.  This module checks
both sides of that boundary:

**Static side — rules RPR301-RPR304** (:func:`check_races`), run by the
``python -m repro.analysis`` linter over every generator fiber
(``run()`` bodies, ``@process`` functions, any generator):

* RPR301 — a shared attribute (``self.x``) read into a local before a
  ``yield`` and written back from that stale local after the yield.
* RPR302 — an object handed to another fiber via ``.put(obj)`` and mutated
  afterwards (aliased-packet mutation: the consumer sees the edit, or not,
  depending on schedule).
* RPR303 — a ``Resource`` acquire whose release can be skipped by
  an exception (``Interrupt``) delivered at an intervening wait point; the
  release must sit in a ``finally``.
* RPR304 — an ``if`` (rather than ``while``) on shared state guarding a
  wait: after wakeup the condition may no longer hold.

**Runtime side — :class:`RaceMonitor`**, an opt-in engine sanitizer
(``REPRO_RACE_CHECK=1`` or ``Simulator(race_check=True)``).  The event loop
dispatches same-timestamp entries (the ready queue, or the heap's earliest
instant) as explicit batches; the monitor
records a per-entry access footprint over the kernel's shared structures
(event state/callback lists via succeed/fail/interrupt/dispatch,
Resource FIFO traffic, plus anything fibers declare through
:func:`note_read`/:func:`note_write`) and reports conflicting footprints
between tied entries — write/write or read/write on the same object field —
as ordering hazards.  FIFO-mediated accesses (grant queues)
are *ordered*, not hazardous: their tie order is pinned by the engine's
schedule order by design, so they pin the batch instead of flagging it.

**Perturbation** turns the engine's "ties run in schedule order" comment
into a checked invariant: :func:`check_workload` runs a workload twice —
recording, then with the pop order *reversed* inside every provably
order-free batch — and asserts byte-identical trace digests and results.
A batch is provably order-free when (a) no two entries' footprints
conflict, (b) no two entries touched the same FIFO, and (c) no two
distinct entries scheduled events onto the same future timestamp (so the
reversal cannot permute any later batch's arrival order).  Under those
three conditions reversal provably preserves every kernel-visible effect;
a digest divergence therefore convicts *hidden* shared state — exactly
the bugs the static rules hunt.
"""

from __future__ import annotations

import ast
import hashlib
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from repro.analysis.findings import Finding
from repro.analysis.rules import _dotted_name, _walk_same_scope
# The one parser of REPRO_RACE_CHECK lives with the engine, which must not
# import this module unless the check is on.
from repro.sim.engine import race_check_from_env

__all__ = [
    "check_races",
    "RaceMonitor",
    "Hazard",
    "OrderingHazardError",
    "note_read",
    "note_write",
    "check_workload",
    "PerturbationReport",
    "race_check_from_env",
]


# ==========================================================================
# Static side: RPR301-RPR304
# ==========================================================================

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popleft",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "setdefault", "appendleft", "push",
})

#: Yielded calls that wait for a *condition* (vs a timer that always fires).
_WAIT_METHODS = frozenset({"get", "request", "acquire", "wait", "join"})


def check_races(tree: ast.Module, path: str) -> List[Finding]:
    """Run the interleaving rules over one parsed module."""
    visitor = _RaceVisitor(path)
    visitor.visit(tree)
    return visitor.findings


def _iter_stmts(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements in source order, descending into compound bodies but not
    into nested function/class definitions."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, name, None)
            if inner:
                yield from _iter_stmts(inner)
        for handler in getattr(stmt, "handlers", ()) or ():
            yield from _iter_stmts(handler.body)


def _own_nodes(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions evaluated *by this statement itself* (a compound
    statement contributes only its header, its body statements are walked
    separately by :func:`_iter_stmts`)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def _walk_exprs(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    for node in nodes:
        yield from ast.walk(node)


def _has_yield(nodes: Iterable[ast.AST]) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _walk_exprs(nodes))


def _self_reads(node: ast.AST) -> List[str]:
    """``self.x`` attribute loads in ``node``, as ``"self.x"`` keys."""
    out = []
    for child in ast.walk(node):
        if (isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load)
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"):
            out.append("self.%s" % child.attr)
    return out


def _is_generator(func: ast.FunctionDef) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _walk_same_scope(func))


def _yield_value(stmt: ast.stmt) -> Optional[ast.expr]:
    """The value of a ``yield``/``yield from`` evaluated by this statement."""
    for node in _walk_exprs(_own_nodes(stmt)):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return node.value
    return None


def _receiver_of(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return _dotted_name(call.func.value)
    return None


class _RaceVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []

    def _emit(self, rule: str, message: str, node: ast.AST) -> None:
        self.findings.append(Finding(
            rule, message, self.path,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
        ))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_handoff_mutation(node)          # RPR302: any function
        if _is_generator(node):
            self._check_stale_rmw(node)             # RPR301
            self._check_unreleased_acquire(node)    # RPR303
            self._check_if_guarded_wait(node)       # RPR304
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # ------------------------------------------------------------- RPR301
    def _check_stale_rmw(self, func: ast.FunctionDef) -> None:
        """Shared attr read into a local before a yield, written back from
        that stale local after the yield, with no re-read in between."""
        yields = 0
        # local name -> (shared key, yield count at binding, source line)
        bindings: Dict[str, Tuple[str, int, int]] = {}
        for stmt in _iter_stmts(func.body):
            nodes = _own_nodes(stmt)
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    key = "self.%s" % target.attr
                    for name in ast.walk(stmt.value):
                        if not (isinstance(name, ast.Name)
                                and isinstance(name.ctx, ast.Load)):
                            continue
                        bound = bindings.get(name.id)
                        if bound is not None and bound[0] == key \
                                and bound[1] < yields:
                            self._emit(
                                "RPR301",
                                "%s is written from %r, which was read from "
                                "%s before the yield on an earlier line "
                                "(binding at line %d): another fiber may "
                                "have changed %s at the wait point; re-read "
                                "it after resuming, or waive with a reason"
                                % (key, name.id, key, bound[2], key),
                                stmt,
                            )
                            bindings.pop(name.id, None)
                elif isinstance(target, ast.Name):
                    reads = _self_reads(stmt.value)
                    if len(set(reads)) == 1 and not _has_yield([stmt.value]):
                        bindings[target.id] = (reads[0], yields, stmt.lineno)
                    else:
                        bindings.pop(target.id, None)
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                    stmt.target, ast.Name):
                bindings.pop(stmt.target.id, None)
            elif isinstance(stmt, ast.For) and isinstance(
                    stmt.target, ast.Name):
                bindings.pop(stmt.target.id, None)
            if _has_yield(nodes):
                yields += 1

    # ------------------------------------------------------------- RPR302
    def _check_handoff_mutation(self, func: ast.FunctionDef) -> None:
        """Mutation of an object after it was handed to another fiber via
        ``.put(obj)`` — the consumer aliases the same object."""
        handoffs: Dict[str, int] = {}  # local name -> line of the put()
        for stmt in _iter_stmts(func.body):
            nodes = _own_nodes(stmt)
            # Mutations of already-handed-off names.
            for node in _walk_exprs(nodes):
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute):
                    recv = node.func.value
                    if (isinstance(recv, ast.Name)
                            and recv.id in handoffs
                            and node.func.attr in _MUTATOR_METHODS):
                        self._emit(
                            "RPR302",
                            "%r was handed to another fiber via put() at "
                            "line %d and is mutated afterwards (.%s()): the "
                            "consumer aliases the same object, so the edit "
                            "races with its processing; copy before the "
                            "put, or waive with a reason"
                            % (recv.id, handoffs[recv.id], node.func.attr),
                            node,
                        )
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if isinstance(base, ast.Name) and base.id in handoffs \
                            and base is not target:
                        self._emit(
                            "RPR302",
                            "%r was handed to another fiber via put() at "
                            "line %d and is mutated afterwards (assignment "
                            "into it): the consumer aliases the same "
                            "object; copy before the put, or waive with a "
                            "reason" % (base.id, handoffs[base.id]),
                            stmt,
                        )
                    elif isinstance(target, ast.Name):
                        handoffs.pop(target.id, None)  # rebound: new object
            # Record hand-offs (after the mutation check: `q.put(x)` itself
            # is not a mutation of x).
            for node in _walk_exprs(nodes):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "put"
                        and node.args
                        and isinstance(node.args[0], ast.Name)):
                    handoffs[node.args[0].id] = node.lineno

    # ------------------------------------------------------------- RPR303
    def _check_unreleased_acquire(self, func: ast.FunctionDef) -> None:
        """Acquire with a later release and an intervening wait point, not
        protected by try/finally: an Interrupt at the wait leaks the hold."""
        # Receivers released inside any finally block of this function.
        finally_released: Set[str] = set()
        for node in _walk_same_scope(func):
            if isinstance(node, ast.Try) and node.finalbody:
                for stmt in _iter_stmts(node.finalbody):
                    for child in _walk_exprs(_own_nodes(stmt)):
                        if (isinstance(child, ast.Call)
                                and isinstance(child.func, ast.Attribute)
                                and child.func.attr == "release"):
                            recv = _receiver_of(child)
                            if recv is not None:
                                finally_released.add(recv)

        # Linear event tape: ("acquire", recv, node) | ("release", recv)
        # | ("yield", None).
        tape: List[Tuple[str, Optional[str], Optional[ast.stmt]]] = []
        request_bound: Dict[str, str] = {}  # local -> receiver
        for stmt in _iter_stmts(func.body):
            nodes = _own_nodes(stmt)
            value = _yield_value(stmt)
            acquired_here = False
            if value is not None:
                if isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Attribute) and value.func.attr in (
                        "request", "acquire"):
                    recv = _receiver_of(value)
                    if recv is not None:
                        tape.append(("acquire", recv, stmt))
                        acquired_here = True
                elif isinstance(value, ast.Name) \
                        and value.id in request_bound:
                    tape.append(("acquire", request_bound.pop(value.id), stmt))
                    acquired_here = True
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                assigned = stmt.value
                if isinstance(assigned, ast.Call) and isinstance(
                        assigned.func, ast.Attribute) \
                        and assigned.func.attr == "request":
                    recv = _receiver_of(assigned)
                    if recv is not None:
                        request_bound[stmt.targets[0].id] = recv
            for child in _walk_exprs(nodes):
                if isinstance(child, ast.Call) and isinstance(
                        child.func, ast.Attribute) \
                        and child.func.attr == "release":
                    recv = _receiver_of(child)
                    if recv is not None:
                        tape.append(("release", recv, None))
            if value is not None and not acquired_here:
                tape.append(("yield", None, None))
            elif _has_yield(nodes) and value is None:
                tape.append(("yield", None, None))

        for index, (kind, recv, node) in enumerate(tape):
            if kind != "acquire" or recv in finally_released:
                continue
            waited = False
            for later_kind, later_recv, _n in tape[index + 1:]:
                if later_kind == "release" and later_recv == recv:
                    if waited:
                        assert node is not None
                        self._emit(
                            "RPR303",
                            "%s is acquired here and released only after "
                            "another wait point: an Interrupt (or event "
                            "failure) delivered at that wait skips the "
                            "release and leaks the hold; release in a "
                            "try/finally, or waive with a reason" % recv,
                            node,
                        )
                    break
                if later_kind in ("yield", "acquire"):
                    waited = True

    # ------------------------------------------------------------- RPR304
    def _check_if_guarded_wait(self, func: ast.FunctionDef) -> None:
        """``if`` on shared state around a wait, with the same state used
        after the wait: the condition may be stale after wakeup."""
        for node in _walk_same_scope(func):
            if not isinstance(node, ast.If):
                continue
            keys = set(_self_reads(node.test))
            if not keys:
                continue
            body_stmts = list(_iter_stmts(node.body))
            wait_index: Optional[int] = None
            for index, stmt in enumerate(body_stmts):
                value = _yield_value(stmt)
                if value is None:
                    continue
                if isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Attribute) \
                        and value.func.attr in _WAIT_METHODS:
                    wait_index = index
                    break
                if isinstance(value, (ast.Name, ast.Attribute)):
                    wait_index = index  # a pre-made event: a condition wait
                    break
            if wait_index is None:
                continue
            for stmt in body_stmts[wait_index + 1:]:
                used = set(_self_reads(stmt)) | {
                    "self.%s" % n.attr for n in ast.walk(stmt)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, (ast.Store, ast.Del))
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                }
                stale = keys & used
                if stale:
                    self._emit(
                        "RPR304",
                        "condition on %s guards a wait with `if` and uses "
                        "the same state after wakeup: another fiber can "
                        "change it while this one sleeps, so the check must "
                        "be a `while` re-tested after every wakeup, or be "
                        "waived with a reason" % ", ".join(sorted(stale)),
                        node,
                    )
                    break


# ==========================================================================
# Runtime side: the engine sanitizer
# ==========================================================================

_READ, _WRITE, _ORDERED = 0, 1, 2


class OrderingHazardError(RuntimeError):
    """Raised in strict mode when tied events have conflicting footprints."""


@dataclass(frozen=True)
class Hazard:
    """Two same-timestamp events touched the same field, one writing."""

    time_ns: int
    batch: int          # batch ordinal within the run
    obj: str            # stable description of the shared object
    obj_field: str
    kinds: str          # "write/write" | "read/write"
    first: str          # entry labels, in dispatch order
    second: str

    def render(self) -> str:
        return ("t=%dns batch=%d: %s between tied events %s and %s on "
                "%s.%s — outcome depends on heap tie-breaking"
                % (self.time_ns, self.batch, self.kinds, self.first,
                   self.second, self.obj, self.obj_field))


def _describe(obj: Any) -> str:
    name = getattr(obj, "name", None)
    if isinstance(name, str) and name:
        return "%s(%s)" % (type(obj).__name__, name)
    return type(obj).__name__


class _Cell:
    """Per-(object, field) access record within one batch."""

    __slots__ = ("readers", "writers", "ordered", "labels")

    def __init__(self) -> None:
        self.readers: Set[int] = set()
        self.writers: Set[int] = set()
        self.ordered: Set[int] = set()
        self.labels: Dict[int, str] = {}


class RaceMonitor:
    """Records per-entry access footprints within same-timestamp batches.

    Owned by :class:`repro.sim.engine.Simulator` when race checking is on;
    the engine calls :meth:`begin_batch`/:meth:`begin_entry`/:meth:`end_batch`
    from its dispatch loop, and the instrumented kernel mutation points call
    :meth:`on_read`/:meth:`on_write`/:meth:`on_ordered`/:meth:`on_schedule`.
    """

    def __init__(self, sim: Any, strict: bool = False,
                 plan: Optional[FrozenSet[int]] = None):
        self.sim = sim
        self.strict = strict
        #: Batch ordinals whose pop order the engine must reverse (the
        #: perturbation replay); None outside a perturbed run.
        self.plan: Optional[FrozenSet[int]] = plan
        self.hazards: List[Hazard] = []
        self.batches = 0
        self.entries = 0
        self.reversed_batches = 0
        #: Ordinals of batches proven safe to reverse (see module docstring).
        self.reversible: List[int] = []
        self._digest = hashlib.sha256()
        self._batch_when = 0
        self._batch_acc = 0
        self._batch_size = 0
        self._entry_index = -1
        self._entry_label = ""
        self._cells: Dict[Tuple[int, str], _Cell] = {}
        self._objects: List[Any] = []  # keep ids stable for the batch
        self._sched_targets: Dict[int, int] = {}  # future ts -> first entry
        self._sched_collision = False
        _register_monitor(self)

    @property
    def hazard_count(self) -> int:
        """``len(hazards)`` as an attribute a metrics registry can read."""
        return len(self.hazards)

    # -------------------------------------------------------- batch control
    def should_reverse(self) -> bool:
        """Consulted by the engine just before dispatching the next batch."""
        return self.plan is not None and self.batches in self.plan

    def begin_batch(self, when: int, size: int, reversed_order: bool) -> None:
        self._batch_when = when
        self._batch_acc = 0
        self._batch_size = size
        self._entry_index = -1
        self._cells = {}
        self._objects = []
        self._sched_targets = {}
        self._sched_collision = False
        if reversed_order:
            self.reversed_batches += 1

    def begin_entry(self, event: Any) -> None:
        self._entry_index += 1
        self.entries += 1
        label = _describe(event)
        self._entry_label = label
        self._batch_acc += zlib.crc32(
            b"%d:%s" % (self._batch_when, label.encode("utf-8", "replace")))
        # Dispatch consumes the event's trigger state and callback list; a
        # tied entry that *mutates* them (interrupt detaching a waiter, a
        # late fail) conflicts with this read.
        self.on_read(event, "state")
        self.on_read(event, "callbacks")

    def end_batch(self, pinned: bool = False) -> None:
        ordinal = self.batches
        self.batches += 1
        self._digest.update(struct.pack(
            "<qLL", self._batch_when, self._batch_size,
            self._batch_acc & 0xFFFFFFFF))
        new_hazards: List[Hazard] = []
        pinned = pinned or self._sched_collision
        if self._entry_index > 0:  # >= 2 entries actually dispatched
            for (_obj_id, field_name), cell in self._cells.items():
                if len(cell.ordered) > 1:
                    pinned = True
                contested = set(cell.writers)
                if not contested:
                    continue
                others = (cell.readers | cell.writers) - (
                    contested if len(contested) > 1 else set())
                if len(contested) > 1 or (others - contested):
                    parties = sorted(cell.readers | cell.writers)
                    kinds = ("write/write" if len(contested) > 1
                             else "read/write")
                    obj = next(o for o in self._objects if id(o) == _obj_id)
                    new_hazards.append(Hazard(
                        self._batch_when, ordinal, _describe(obj),
                        field_name, kinds,
                        cell.labels.get(parties[0], "?"),
                        cell.labels.get(parties[1], "?"),
                    ))
            if not new_hazards and not pinned and self._batch_size > 1:
                self.reversible.append(ordinal)
        self.hazards.extend(new_hazards)
        self._entry_index = -1
        self._cells = {}
        self._objects = []
        if new_hazards and self.strict:
            raise OrderingHazardError(
                "; ".join(h.render() for h in new_hazards))

    # ------------------------------------------------------------ recording
    def _record(self, obj: Any, field_name: str, kind: int) -> None:
        if self._entry_index < 0:
            return  # outside dispatch (setup code before run())
        key = (id(obj), field_name)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _Cell()
            self._objects.append(obj)
        entry = self._entry_index
        if kind == _READ:
            cell.readers.add(entry)
        elif kind == _WRITE:
            cell.writers.add(entry)
        else:
            cell.ordered.add(entry)
        cell.labels.setdefault(entry, self._entry_label)

    def on_read(self, obj: Any, field_name: str) -> None:
        self._record(obj, field_name, _READ)

    def on_write(self, obj: Any, field_name: str) -> None:
        self._record(obj, field_name, _WRITE)

    def on_ordered(self, obj: Any, field_name: str) -> None:
        self._record(obj, field_name, _ORDERED)

    def on_schedule(self, when_ns: int) -> None:
        """A dispatch callback scheduled an event for ``when_ns``.

        Two distinct tied entries feeding the same future timestamp pin the
        batch: reversing it would permute the future batch's arrival order.
        """
        if self._entry_index < 0:
            return
        first = self._sched_targets.setdefault(when_ns, self._entry_index)
        if first != self._entry_index:
            self._sched_collision = True

    # ------------------------------------------------------------- results
    def digest(self) -> str:
        """Order-insensitive-within-batch digest of the dispatched trace."""
        return self._digest.hexdigest()

    def report(self) -> List[str]:
        return [hazard.render() for hazard in self.hazards]


def note_read(sim: Any, obj: Any, field_name: str) -> None:
    """Declare a fiber's read of shared state (no-op with checking off)."""
    monitor = getattr(sim, "race", None)
    if monitor is not None:
        monitor.on_read(obj, field_name)


def note_write(sim: Any, obj: Any, field_name: str) -> None:
    """Declare a fiber's write of shared state (no-op with checking off)."""
    monitor = getattr(sim, "race", None)
    if monitor is not None:
        monitor.on_write(obj, field_name)


# ==========================================================================
# Perturbation harness
# ==========================================================================

#: Harness state: a sink collecting monitors created while a workload runs,
#: and a queue of reversal plans consumed by monitors in creation order.
_COLLECT: Optional[List[RaceMonitor]] = None
_PLANS: Optional[List[FrozenSet[int]]] = None
_PLAN_INDEX = 0


def _register_monitor(monitor: RaceMonitor) -> None:
    global _PLAN_INDEX
    if _COLLECT is not None:
        _COLLECT.append(monitor)
    if _PLANS is not None and _PLAN_INDEX < len(_PLANS):
        monitor.plan = _PLANS[_PLAN_INDEX]
        _PLAN_INDEX += 1


@contextmanager
def _harness(sink: List[RaceMonitor],
             plans: Optional[List[FrozenSet[int]]]):
    global _COLLECT, _PLANS, _PLAN_INDEX
    saved = (_COLLECT, _PLANS, _PLAN_INDEX)
    saved_env = os.environ.get("REPRO_RACE_CHECK")
    _COLLECT, _PLANS, _PLAN_INDEX = sink, plans, 0
    if race_check_from_env() is None:
        os.environ["REPRO_RACE_CHECK"] = "1"
    try:
        yield
    finally:
        _COLLECT, _PLANS, _PLAN_INDEX = saved
        if saved_env is None:
            os.environ.pop("REPRO_RACE_CHECK", None)
        else:
            os.environ["REPRO_RACE_CHECK"] = saved_env


@dataclass
class PerturbationReport:
    """Outcome of a record-then-perturb workload check."""

    hazards: List[Hazard] = field(default_factory=list)
    batches: int = 0
    reversible: int = 0
    reversed_batches: int = 0
    digests_match: bool = True
    results_match: bool = True
    detail: str = ""
    result: Any = None

    @property
    def clean(self) -> bool:
        return (not self.hazards and self.digests_match
                and self.results_match)

    def render(self) -> str:
        lines = [
            "batches=%d reversible=%d reversed=%d hazards=%d"
            % (self.batches, self.reversible, self.reversed_batches,
               len(self.hazards)),
            "trace digests %s, results %s under reversed tie-breaking"
            % ("identical" if self.digests_match else "DIVERGED",
               "identical" if self.results_match else "DIVERGED"),
        ]
        lines.extend(h.render() for h in self.hazards)
        if self.detail:
            lines.append(self.detail)
        return "\n".join(lines)


def check_workload(workload) -> PerturbationReport:
    """Run ``workload()`` twice under the sanitizer: once recording, once
    with reversed tie-breaking inside every provably order-free batch.

    The workload must be deterministic and construct its own
    :class:`~repro.sim.engine.Simulator` (s) — typically via ``System`` —
    *inside* the call, so both runs build fresh, monitored engines.
    Returns a :class:`PerturbationReport`; ``clean`` means no conflicting
    footprints anywhere and byte-identical trace digests and results.
    """
    recording: List[RaceMonitor] = []
    with _harness(recording, plans=None):
        first = workload()
    plans = [frozenset(m.reversible) for m in recording]
    replay: List[RaceMonitor] = []
    with _harness(replay, plans=plans):
        second = workload()

    report = PerturbationReport(result=first)
    report.hazards = [h for m in recording for h in m.hazards]
    report.hazards += [h for m in replay for h in m.hazards]
    report.batches = sum(m.batches for m in recording)
    report.reversible = sum(len(m.reversible) for m in recording)
    report.reversed_batches = sum(m.reversed_batches for m in replay)
    digests_a = [m.digest() for m in recording]
    digests_b = [m.digest() for m in replay]
    report.digests_match = digests_a == digests_b
    report.results_match = repr(first) == repr(second)
    if len(recording) != len(replay):
        report.digests_match = False
        report.detail = ("workload built %d simulators on record but %d on "
                         "replay; it must be deterministic"
                         % (len(recording), len(replay)))
    return report


# ==========================================================================
# CLI: ``python -m repro.analysis.races --workload table3``
# ==========================================================================

def _golden_workloads() -> Dict[str, Any]:
    """Reduced golden-trace slices (same shapes the golden CSVs pin)."""
    from repro.bench.ablations import _gc_workload
    from repro.bench.experiments import (
        exp_fig7_read_bandwidth, exp_table3_read_latency,
    )
    from repro.sim.units import KIB, MIB

    def gc():
        # The write path: one writer overwriting 85 % of a 16-block die,
        # so GC relocates through the FTL between host appends.
        ftl = _gc_workload(blocks_per_die=16, live_fraction=0.85)
        return (ftl.write_amplification, ftl.gc_runs, ftl.relocated_pages)

    return {
        "table3": lambda: exp_table3_read_latency(samples=8),
        "fig7": lambda: exp_fig7_read_bandwidth(
            sizes=[64 * KIB, 1 * MIB], sweep_bytes=32 * MIB),
        "gc": gc,
    }


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.races",
        description="Runtime interleaving sanitizer: run a golden-trace "
        "workload under REPRO_RACE_CHECK, then replay it with reversed "
        "tie-breaking in provably order-free batches and require "
        "byte-identical traces.",
    )
    parser.add_argument("--workload", default="table3",
                        choices=sorted(_golden_workloads()),
                        help="golden-trace slice to check (default: table3)")
    options = parser.parse_args(argv)
    workload = _golden_workloads()[options.workload]
    report = check_workload(workload)
    print("workload %s: %s" % (options.workload,
                               "CLEAN" if report.clean else "HAZARDOUS"))
    print(report.render())
    return 0 if report.clean else 1


if __name__ == "__main__":
    import sys
    # Under ``python -m`` this file executes as ``__main__`` — a second
    # module object with its *own* monitor-collection globals.  Delegate to
    # the canonical import the engine registers with.
    from repro.analysis.races import main as _canonical_main
    sys.exit(_canonical_main())
