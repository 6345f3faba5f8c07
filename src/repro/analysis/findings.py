"""Findings and the rule catalogue shared by the graph verifier and linter.

Every check — whether it runs over a built SSDlet pipeline or over the
source tree's ASTs — reports :class:`Finding` records carrying a stable
rule ID, a message, and file:line provenance.  IDs are stable so that
``# repro: noqa RPRxxx`` waivers, CI gates and the DESIGN.md catalogue
all refer to the same thing.

Numbering:

* ``RPR001``–``RPR0xx`` — AST lint rules (simulator-determinism suite).
* ``RPR101``–``RPR1xx`` — dataflow-graph verifier rules.
* ``RPR201``–``RPR2xx`` — AST lint rules (SSDlet cooperative scheduling).
* ``RPR301``–``RPR3xx`` — AST lint rules (fiber interleaving / yield-point
  races; see repro.analysis.races).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "GRAPH_RULES",
    "LINT_RULES",
    "SSDLET_LINT_RULES",
    "RACE_LINT_RULES",
    "rule_ids",
]


class Finding(NamedTuple):
    """One verifier/linter hit, with provenance."""

    rule: str  # "RPR001"
    message: str
    path: str  # file the finding anchors to ("<graph>" when unknown)
    line: int  # 1-indexed; 0 when no source location exists
    col: int = 0

    def render(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col,
                                    self.rule, self.message)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


class Rule(NamedTuple):
    """Catalogue entry: what a rule ID means and why it exists."""

    id: str
    title: str
    rationale: str


#: AST lint rules (see repro.analysis.rules for the checkers).
LINT_RULES: List[Rule] = [
    Rule(
        "RPR001",
        "no wall-clock reads in simulator code",
        "Simulated time comes from Simulator.now; time.time()/perf_counter()/"
        "datetime.now() silently couple results to the host machine and break "
        "REPRO: replay lines and calibrated numbers. Allowed only under "
        "instrument/ (which measures the simulator itself) or with a waiver.",
    ),
    Rule(
        "RPR002",
        "no module-level / unseeded randomness",
        "All randomness must flow from an explicit random.Random(seed) stream "
        "so one integer seed reproduces a run. Calls through the module-level "
        "random.* (or numpy.random.*) API use hidden global state.",
    ),
    Rule(
        "RPR003",
        "no iteration over unordered collections",
        "Iterating a set (or dict.keys() of an id-keyed dict) visits elements "
        "in hash order, which varies with PYTHONHASHSEED; any simulator "
        "decision derived from that order is nondeterministic across runs. "
        "Sort first, or iterate an insertion-ordered structure.",
    ),
    Rule(
        "RPR004",
        "time-unit discipline",
        "Timing-valued names (delay, timeout, latency, backoff, ...) must "
        "carry a unit suffix (_ns/_us/_ms/_s), and operands of arithmetic or "
        "comparisons must agree on the suffix; mixed-unit math is how "
        "calibration constants silently go wrong by 1000x.",
    ),
    Rule(
        "RPR005",
        "no blocking I/O inside fibers",
        "Generator processes advance only at yields of simulator Events; a "
        "time.sleep()/open()/subprocess call inside a fiber blocks the whole "
        "event loop in wall-clock time and is invisible to simulated time.",
    ),
    Rule(
        "RPR006",
        "events must be awaited or explicitly kept",
        "A sim.timeout()/sim.event()/sim.process() result discarded in an "
        "expression statement schedules work nobody waits for: the fiber "
        "continues at the wrong simulated time and failures go unobserved. "
        "Yield it, assign it, or waive explicitly.",
    ),
    Rule(
        "RPR007",
        "generated code runs only through the kernel generator",
        "eval, exec and compile turn strings into behaviour no other rule, "
        "type check or grep can see. repro.db.kernels is the one module that "
        "may call them: it binds every constant by name (so no value is ever "
        "spliced into source text, and the text is hash-seed independent) and "
        "keeps each kernel's source on the function for --explain.",
    ),
]

#: SSDlet cooperative-scheduling lint rules (also checked by the AST pass).
SSDLET_LINT_RULES: List[Rule] = [
    Rule(
        "RPR201",
        "SSDlet run() must yield",
        "run() executes as a cooperative fiber on a shared device core; a "
        "body that never yields holds the core until it returns, starving "
        "every co-resident application (and, under the serving layer, every "
        "other tenant's jobs). Every device operation — I/O, port put/get, "
        "compute — is an event to yield; an intentional non-fiber needs an "
        "explicit waiver.",
    ),
]

#: Dataflow-graph verifier rules (see repro.analysis.graph).
GRAPH_RULES: List[Rule] = [
    Rule(
        "RPR101",
        "port type mismatch",
        "Connected ports must declare identical type specs — the paper's "
        "strongly-typed port model allows no implicit conversion.",
    ),
    Rule(
        "RPR102",
        "unconnected input port",
        "An input port with no producer blocks its SSDlet's first get() "
        "forever; the pipeline deadlocks after resources were committed.",
    ),
    Rule(
        "RPR103",
        "unconnected output port",
        "An output port with no consumer blocks the first put() on a full "
        "queue forever (and silently drops results before that).",
    ),
    Rule(
        "RPR104",
        "duplicate binding on an SPSC port",
        "Host-device and inter-application connections are SPSC; wiring a "
        "second producer/consumer would fail mid-start(), after device "
        "instances already exist.",
    ),
    Rule(
        "RPR105",
        "unreachable SSDlet",
        "A task whose every input transitively depends on tasks with no data "
        "source can never make progress; it holds a fiber, memory and "
        "possibly a data channel for the lifetime of the application.",
    ),
    Rule(
        "RPR106",
        "cycle in the dataflow graph",
        "Biscuit pipelines are DAGs; a cycle over bounded queues deadlocks "
        "as soon as every queue on the cycle fills.",
    ),
    Rule(
        "RPR107",
        "non-serializable type on a Packet-transport connection",
        "Host-device and inter-application ports carry Packet data; a dtype "
        "with no registered serializer fails when the connection is built, "
        "mid-start().",
    ),
]

#: Fiber interleaving rules (see repro.analysis.races for the checkers).
RACE_LINT_RULES: List[Rule] = [
    Rule(
        "RPR301",
        "no stale read-modify-write across a yield",
        "A shared attribute read into a local before a yield and written "
        "back from that local after the yield overwrites whatever another "
        "fiber did at the wait point — the classic lost update, invisible "
        "until schedules shift. Re-read the attribute after resuming.",
    ),
    Rule(
        "RPR302",
        "no mutation after port handoff",
        "put(obj) transfers the object by reference; the consumer fiber "
        "aliases it. Mutating it after the handoff means the consumer sees "
        "the edit — or not — depending on schedule order. Copy before "
        "putting, or stop touching it.",
    ),
    Rule(
        "RPR303",
        "acquire must release on exception paths",
        "Between a Resource acquire and its release, any yield is a "
        "wait point where an Interrupt (hedged-read cancellation, tenant "
        "eviction) or event failure can arrive; without try/finally the "
        "unit leaks and the channel/queue wedges for the rest of the run.",
    ),
    Rule(
        "RPR304",
        "re-check wait conditions after wakeup",
        "An `if` on shared state guarding a wait is checked once; by the "
        "time the fiber wakes, another fiber may have falsified it. "
        "Condition waits must loop (`while`), re-testing after every "
        "wakeup.",
    ),
]

RULES: List[Rule] = (LINT_RULES + GRAPH_RULES + SSDLET_LINT_RULES
                     + RACE_LINT_RULES)


def rule_ids() -> List[str]:
    return [rule.id for rule in RULES]
