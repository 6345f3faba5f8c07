"""Correctness tooling: fault injection, generators, differential testing.

The paper ships Biscuit on firmware we cannot run; this package is how the
software model earns the same trust — deterministic seeded fault injection
at the NAND/controller layer, property-style workload generators, and a
differential harness asserting that the NDP pushdown path, the host-only
path and a SQLite reference always agree, with and without faults, on
each arm of :data:`repro.testing.differential.ARMS` (``ndp``,
``interleaved``, ``fastpath``, ``inline``, ``perturbed``, ``resilient``,
``sharded``).

Every harness failure prints a one-line ``REPRO: seed=... config=...:arm=...``
that replays the exact case on its arm (see :func:`~.differential.replay`).
"""

from repro.testing.faults import Fault, FaultInjector, FaultPlan
from repro.testing.strategies import (
    GENERATOR_VERSION,
    gen_fault_plan,
    gen_query,
    gen_ssd_config,
    gen_table,
    parse_repro,
    repro_line,
)
from repro.testing.differential import (
    ARMS,
    CaseResult,
    replay,
    run_case,
    run_sweep,
    summarize,
)

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "GENERATOR_VERSION",
    "gen_fault_plan",
    "gen_query",
    "gen_ssd_config",
    "gen_table",
    "parse_repro",
    "repro_line",
    "ARMS",
    "CaseResult",
    "replay",
    "run_case",
    "run_sweep",
    "summarize",
]
