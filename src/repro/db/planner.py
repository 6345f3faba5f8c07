"""The NDP offload heuristic (Section V-C).

The paper's modified MariaDB planner: (1) identify a candidate table whose
filter predicates are amenable for offloading, (2) estimate selectivity with
a quick page-sampling check, (3) compare against a threshold, (4) offload.
Selectivity is the *fraction of pages* that satisfy the filter (0 = best).

Rejection reasons mirror Fig. 10's narrative: no matcher-amenable predicate
(e.g. NOT LIKE), target table too small, or sampled selectivity too low
(too many pages would survive).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.db import kernels
from repro.db.executor import Engine, EngineConfig, ExecutionMode, TableRef
from repro.db.expr import (
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    InList,
    Logic,
    MatcherFilter,
    matcher_candidates,
)

__all__ = [
    "ScanDecision", "NDPPlanner", "create_engine", "partition_constraints",
]


def partition_constraints(pred: Optional[Expr], key: str):
    """Extract shard-pruning constraints on ``key`` from a predicate.

    Returns one of:

    * ``("eq", values)`` — the predicate pins the key to a finite value
      set (``==`` against a constant, ``IN``); only shards owning those
      values can hold matching rows.
    * ``("range", (low, high, low_inc, high_inc))`` — the key is bounded
      (``BETWEEN``, comparisons); ``None`` marks an open end.
    * ``None`` — no usable constraint; every shard must be scanned.

    Always *superset-safe*: the pruned shard set may be larger than
    strictly necessary, never smaller.  Only top-level conjunctions are
    mined — OR/NOT forms return None rather than risk under-pruning.
    """
    if pred is None:
        return None
    conjuncts = (list(pred.args)
                 if isinstance(pred, Logic) and pred.op == "and" else [pred])
    low = high = None
    low_inc = high_inc = True
    bounded = False
    for conjunct in conjuncts:
        if (isinstance(conjunct, InList) and isinstance(conjunct.column, Col)
                and conjunct.column.name == key):
            return ("eq", list(conjunct.values))
        if isinstance(conjunct, Cmp):
            left, right, op = conjunct.left, conjunct.right, conjunct.op
            # Normalize to Col <op> Const.
            if isinstance(left, Const) and isinstance(right, Col):
                left, right = right, left
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if not (isinstance(left, Col) and left.name == key
                    and isinstance(right, Const)):
                continue
            value = right.value
            if op == "==":
                return ("eq", [value])
            if op in (">", ">="):
                if low is None or value > low:
                    low, low_inc = value, (op == ">=")
                bounded = True
            elif op in ("<", "<="):
                if high is None or value < high:
                    high, high_inc = value, (op == "<=")
                bounded = True
        elif (isinstance(conjunct, Between) and isinstance(conjunct.column, Col)
                and conjunct.column.name == key
                and isinstance(conjunct.low, Const)
                and isinstance(conjunct.high, Const)):
            # Between is inclusive-low / EXCLUSIVE-high (see repro.db.expr).
            if low is None or conjunct.low.value > low:
                low, low_inc = conjunct.low.value, True
            if high is None or conjunct.high.value < high:
                high, high_inc = conjunct.high.value, False
            bounded = True
    if bounded:
        return ("range", (low, high, low_inc, high_inc))
    return None


@dataclass
class ScanDecision:
    offload: bool
    reason: str
    est_selectivity: float
    mfilter: Optional[MatcherFilter]


class NDPPlanner:
    """Per-engine offload decision maker with a per-query decision cache."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._cache: Dict[Tuple[str, str], ScanDecision] = {}
        self.sampled_pages = 0

    def reset(self) -> None:
        """Drop cached decisions (new query = new sampling pass)."""
        self._cache.clear()

    def peek(self, ref: TableRef) -> Generator:
        """Fiber: the decision for a table reference (cached per query)."""
        key = (ref.name, repr(ref.pred))
        decision = self._cache.get(key)
        if decision is None:
            decision = yield from self._evaluate(ref)
            self._cache[key] = decision
        return decision

    def _evaluate(self, ref: TableRef) -> Generator:
        engine = self.engine
        config = engine.config
        storage = engine.db.table(ref.name)
        if ref.pred is None:
            return ScanDecision(False, "no filter predicate", 1.0, None)
        candidates = matcher_candidates(ref.pred)
        if not candidates:
            return ScanDecision(
                False, "predicate not matcher-amenable (HW limitation)", 1.0, None
            )
        total_pages = sum(t.num_pages for t in engine.db.tables.values())
        if (storage.num_pages < config.ndp_min_table_pages
                or storage.num_pages < total_pages * config.ndp_min_table_fraction):
            return ScanDecision(False, "target table too small", 1.0, candidates[0])
        selectivity, mfilter = yield from self._sample_selectivity(ref, candidates)
        if selectivity > config.ndp_selectivity_threshold:
            return ScanDecision(
                False, "sampled selectivity %.2f too low to pay off" % selectivity,
                selectivity, mfilter,
            )
        return ScanDecision(
            True, "offload (selectivity %.3f, %s)" % (selectivity, mfilter.description),
            selectivity, mfilter,
        )

    def _sample_selectivity(self, ref: TableRef, candidates) -> Generator:
        """Fiber: read a random page sample (timed — the 'quick check').

        Returns (page fraction satisfying the full filter, the candidate
        conjunct with the lowest page hit rate — what the IP gets keyed
        with).
        """
        engine = self.engine
        storage = engine.db.table(ref.name)
        schema = storage.schema
        positions = {name: i for i, name in enumerate(schema.column_names())}
        passing = kernels.select(positions, ref.pred)
        candidate_hitting = [
            kernels.select(positions, mf.conjunct) for mf in candidates
        ]
        candidate_hits = [0] * len(candidates)
        sample_size = min(engine.config.ndp_sample_pages, storage.num_pages)
        seed = zlib.crc32(("%s|%r" % (ref.name, ref.pred)).encode("utf-8"))
        rng = random.Random(seed)
        pages = rng.sample(range(storage.num_pages), sample_size)
        handle = engine.system.open_host(storage.path)
        page_size = storage.page_size
        # Fire the sample reads as one async burst (the quick check should
        # not serialize 48 round trips).
        events = []
        for page_no in pages:
            length = min(page_size, storage.inode.size - page_no * page_size)
            event = handle.aread_timing_only(page_no * page_size, length)
            # A burst member may fail before its turn in the drain loop below;
            # defusing keeps that from aborting the whole simulation — the
            # failure is rethrown here when the event is yielded.
            event.defused = True
            events.append(event)
            engine.host_pages_read += 1
            self.sampled_pages += 1
        for event in events:
            yield event
        matched = 0
        for page_no in pages:
            rows = engine.table_page_rows(ref.name, page_no)
            if passing(rows):
                matched += 1
            for slot, hitting in enumerate(candidate_hitting):
                if hitting(rows):
                    candidate_hits[slot] += 1
        yield from engine._charge(len(pages) * 40.0)  # evaluate sampled pages
        best_slot = min(range(len(candidates)), key=lambda i: candidate_hits[i])
        selectivity = matched / sample_size if sample_size else 1.0
        return selectivity, candidates[best_slot]


def create_engine(system, db, mode: ExecutionMode,
                  config: Optional[EngineConfig] = None) -> Engine:
    """Factory: an Engine with planner and NDP machinery attached — the
    only place one is wired."""
    from repro.db.ndp import NDPContext  # deferred: ndp imports executor

    engine = Engine(system, db, mode, config)
    engine.planner = NDPPlanner(engine)
    if mode is ExecutionMode.BISCUIT:
        engine.ndp_context = NDPContext(system)
    return engine
