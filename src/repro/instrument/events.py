"""Structured event bus: typed trace events over simulated time.

Every instrumented layer (NVMe command lifecycle, NAND page ops, FTL GC,
read cache, pattern matcher, SSDlet fibers and ports) emits
:class:`TraceEvent` records through one :class:`EventBus` hung off the
:class:`~repro.sim.engine.Simulator`.  The bus is opt-in and free when off:
``Simulator.trace`` is ``None`` by default, and every emission site guards
with a single ``sim.trace is not None`` check before doing any work.  An
attached bus never advances simulated time — events are pure observations,
so enabling tracing cannot change a single calibrated number.

Event model (mirrors the Chrome/Perfetto trace-event vocabulary):

* **complete** events carry a start timestamp and a duration (``dur_ns``) —
  one span of work on a track (a NAND read on ``ssd0/ch3``, a fiber's whole
  life on ``app/idSearcher#1``).
* **instant** events carry only a timestamp (``dur_ns is None``) — a point
  occurrence (a cache hit, an NVMe doorbell).

Tracks are ``process/thread`` path strings (``ssd0/ch3``, ``host/io0``,
``string-search/idSearcher#1``); the Perfetto exporter splits on the first
``/`` to build one process per device (or application) with one track per
channel / core / SSDlet.  Event ordering is emission order, which the
simulator's sequence-number tie-breaking makes bit-reproducible — the
exported trace is byte-identical across runs and ``PYTHONHASHSEED`` values.

Naming conventions (see DESIGN.md "Event taxonomy"):

* ``cat`` is the emitting subsystem: ``nvme``, ``ctrl``, ``fw``, ``nand``,
  ``ftl``, ``cache``, ``matcher``, ``xfer``, ``driver``, ``core``, ``port``.
* ``name`` is the operation within it (``read``, ``gc``, ``hit``, ``put``).
* ``args`` values must be deterministic scalars (int/float/str/bool/None);
  never object reprs or ``id()``-derived values.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.sim.engine import Simulator

__all__ = ["TraceEvent", "TraceContext", "EventBus", "traced_simulator",
           "qid_root"]


def qid_root(qid: str) -> str:
    """The originating query id of a qid path (child-scope suffixes stripped).

    The one place a qid is split on its first ``+``: :attr:`TraceContext.root`,
    ``causal.group_queries`` and the Perfetto exporter's flows all call it.
    """
    return qid.split("+", 1)[0]


class TraceContext(NamedTuple):
    """Request identity carried through every layer (see DESIGN.md).

    ``qid`` is a slash-separated query/job path ("serve/tenantA/j3",
    "table3/q7"); causal children (hedge legs, retries) extend it with a
    ``+`` segment ("storm/q3+hedge0"), so the originating request is always
    :func:`qid_root` of it.  ``tenant`` is the owning tenant ("" when the
    workload is single-tenant).
    """

    qid: str
    tenant: str = ""

    @property
    def root(self) -> str:
        """The originating query id (child-scope suffixes stripped)."""
        return qid_root(self.qid)

    def child(self, label: str) -> "TraceContext":
        """A causal child of this context (hedge leg, retry attempt...)."""
        return TraceContext(self.qid + "+" + label, self.tenant)


class TraceEvent(NamedTuple):
    """One structured occurrence on the simulated timeline."""

    ts_ns: int                    #: start time (simulated nanoseconds)
    dur_ns: Optional[int]         #: duration; None for instant events
    cat: str                      #: emitting subsystem (see module docstring)
    name: str                     #: operation name within the subsystem
    track: str                    #: "process/thread" path string
    args: Optional[Dict[str, Any]]  #: deterministic payload, or None

    @property
    def end_ns(self) -> int:
        """End time (== start for instant events)."""
        return self.ts_ns + (self.dur_ns or 0)


class EventBus:
    """Collects trace events for one simulator.

    Constructing a bus attaches it (``sim.trace = self``); call
    :meth:`detach` to turn tracing back off.  The bus is append-only and
    holds events in emission order; exporters and the latency-breakdown
    report consume :attr:`events` directly.
    """

    def __init__(self, sim: Simulator):
        if sim.trace is not None:
            raise ValueError("simulator already has an event bus attached")
        self.sim = sim
        self.events: List[TraceEvent] = []
        self._ids = itertools.count(1)
        self._device_scopes: List[str] = []
        #: The active causal context.  The engine restores it from the
        #: resumed fiber's ``ctx`` slot before each resume, so emissions are
        #: tagged with the request they serve regardless of interleaving.
        self.ctx: Optional[TraceContext] = None
        #: The fiber currently being driven (engine-maintained); scope()
        #: writes through to it so a context opened inside a fiber survives
        #: across yields.
        self._current = None
        sim.trace = self

    # ------------------------------------------------------------- lifecycle
    @property
    def attached(self) -> bool:
        return self.sim.trace is self

    def detach(self) -> None:
        """Stop collecting (``sim.trace`` returns to None); events survive."""
        if self.sim.trace is self:
            self.sim.trace = None

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -------------------------------------------------------------- emission
    def next_id(self) -> int:
        """A monotonically increasing correlation id (NVMe command ids)."""
        return next(self._ids)

    def instant(self, cat: str, name: str, track: str, **args: Any) -> None:
        """Record a point occurrence at the current simulated time."""
        ctx = self.ctx
        if ctx is not None:
            args["q"] = ctx.qid
            if ctx.tenant:
                args["tn"] = ctx.tenant
        self.events.append(TraceEvent(
            self.sim.now, None, cat, name, track, args or None))

    def complete(self, cat: str, name: str, track: str, start_ns: int,
                 **args: Any) -> None:
        """Record a span from ``start_ns`` to the current simulated time.

        Call at the *end* of the work, passing the start timestamp captured
        before it (the one-call form avoids begin/end pairing state).
        """
        ctx = self.ctx
        if ctx is not None:
            args["q"] = ctx.qid
            if ctx.tenant:
                args["tn"] = ctx.tenant
        now = self.sim.now
        self.events.append(TraceEvent(
            start_ns, now - start_ns, cat, name, track, args or None))

    # --------------------------------------------------------------- contexts
    @contextmanager
    def scope(self, qid: str, tenant: str = ""):
        """Activate a causal context for the dynamic extent of the block.

        Inside a fiber, the context also binds to the fiber itself, so it
        survives across yields (the engine restores the fiber's context on
        every resume) and is inherited by any fibers spawned inside the
        block.  Contexts nest; the previous one is restored on exit.  Roots
        must not contain ``+`` (reserved for child-scope suffixes).
        """
        ctx = TraceContext(qid, tenant)
        previous, self.ctx = self.ctx, ctx
        fiber = self._current
        fiber_previous = None
        if fiber is not None:
            fiber_previous, fiber.ctx = fiber.ctx, ctx
        try:
            yield ctx
        finally:
            self.ctx = previous
            if fiber is not None:
                fiber.ctx = fiber_previous

    @contextmanager
    def child_scope(self, label: str):
        """Activate a causal child of the current context (no-op without one)."""
        ctx = self.ctx
        if ctx is None:
            yield None
            return
        child = ctx.child(label)
        previous, self.ctx = self.ctx, child
        fiber = self._current
        fiber_previous = None
        if fiber is not None:
            fiber_previous, fiber.ctx = fiber.ctx, child
        try:
            yield child
        finally:
            self.ctx = previous
            if fiber is not None:
                fiber.ctx = fiber_previous

    # --------------------------------------------------------------- scoping
    def register_device(self) -> str:
        """Claim a device scope name ("ssd0", "ssd1", ...).

        Devices call this at construction so their tracks are unambiguous in
        multi-SSD systems; assignment is construction order, which the
        simulator makes deterministic.
        """
        scope = "ssd%d" % len(self._device_scopes)
        self._device_scopes.append(scope)
        return scope

    # ----------------------------------------------------------------- query
    def select(self, cat: Optional[str] = None, name: Optional[str] = None,
               track: Optional[str] = None) -> List[TraceEvent]:
        """Events matching every given filter, in emission order."""
        return [
            event for event in self.events
            if (cat is None or event.cat == cat)
            and (name is None or event.name == name)
            and (track is None or event.track == track)
        ]


def traced_simulator(trace: bool = True) -> Tuple[Simulator, Optional[EventBus]]:
    """A fresh simulator and, when ``trace``, the bus attached to it.

    For entry points that build their own world: the bus must attach before
    a ``System`` wires its devices, so each SSD registers its trace scope
    ("ssd0", ...).
    """
    sim = Simulator()
    return sim, EventBus(sim) if trace else None
