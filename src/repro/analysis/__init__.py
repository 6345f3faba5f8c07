"""Static analysis for the Biscuit reproduction: ``repro.analysis``.

Two pillars, both enforcing invariants the paper's C++11 framework gets
from its compiler and our Python reproduction otherwise discovers at
runtime (or never):

* **Graph verifier** (:func:`verify_graph`, rules RPR101-RPR107) — checks a
  built-or-declared SSDlet pipeline for port type mismatches, dangling
  required ports, duplicate SPSC bindings, unreachable SSDlets and cycles,
  with file:line provenance of the offending wiring call.
  ``Application.start()`` runs it automatically (warn-by-default;
  ``verify="strict"`` refuses to start a broken graph).

* **Determinism lint suite** (``python -m repro.analysis``, rules
  RPR001-RPR007) — walks source ASTs and flags wall-clock reads, unseeded
  randomness, hash-ordered iteration, unit-suffix violations, blocking I/O
  in fibers, discarded simulator events and ``eval``/``exec`` outside the
  kernel generator.  ``# repro: noqa RPRxxx``
  waives a finding on its line.

* **Interleaving sanitizer** (:mod:`repro.analysis.races`) — two-sided.
  Static rules RPR301-RPR304 (run by the same lint CLI) flag yield-point
  races in fiber code: stale read-modify-write across a yield, mutation
  after a port ``put`` handoff, acquires without exception-safe release, and
  ``if``-guarded condition waits.  The runtime :class:`RaceMonitor`
  (``REPRO_RACE_CHECK=1`` / ``Simulator(race_check=True)``) footprints tied
  same-timestamp events in the engine's dispatch batches, reports
  conflicting footprints as ordering hazards, and — via
  :func:`check_workload` — replays a workload with reversed tie-breaking
  in provably order-free batches, requiring a bit-identical trace.
"""

from repro.analysis.findings import (
    Finding,
    GRAPH_RULES,
    LINT_RULES,
    RULES,
    Rule,
    rule_ids,
)
from repro.analysis.graph import GraphVerificationError, verify_graph, verify_links
from repro.analysis.linter import (
    JSON_SCHEMA_VERSION,
    expand_select,
    lint_file,
    lint_paths,
    render_json,
    render_text,
)
#: Names re-exported lazily (PEP 562) from repro.analysis.races.  Eager
#: import would put the submodule in sys.modules before ``python -m
#: repro.analysis.races`` executes it, spawning a second module object with
#: its own monitor-collection state (and a runpy warning).
_RACE_EXPORTS = frozenset({
    "OrderingHazardError", "PerturbationReport", "RaceMonitor",
    "check_races", "check_workload", "note_read", "note_write",
})


def __getattr__(name):
    if name in _RACE_EXPORTS:
        from repro.analysis import races
        return getattr(races, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "LINT_RULES",
    "GRAPH_RULES",
    "rule_ids",
    "GraphVerificationError",
    "verify_graph",
    "verify_links",
    "lint_file",
    "lint_paths",
    "expand_select",
    "render_text",
    "render_json",
    "JSON_SCHEMA_VERSION",
    "check_races",
    "RaceMonitor",
    "OrderingHazardError",
    "check_workload",
    "PerturbationReport",
    "note_read",
    "note_write",
]
