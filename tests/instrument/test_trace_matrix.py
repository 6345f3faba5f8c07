"""Trace-determinism matrix (fast path x tracing, 4 arms per experiment).

Tracing is pure observation and the fused NAND fast path de-gates itself
with bit-identical timing when a bus is attached, so the golden fig7 /
table3 experiments must produce *exactly* equal numbers in all four arms
of ``sim_fast_path`` on/off x tracing on/off — and the two traced arms
must render byte-identical Chrome traces.
"""

import pytest

from repro.bench.experiments import (
    exp_fig7_read_bandwidth,
    exp_table3_read_latency,
)
from repro.host.platform import System
from repro.instrument.events import EventBus
from repro.instrument.perfetto import render_chrome_trace
from repro.sim.engine import Simulator
from repro.sim.units import KIB, MIB
from repro.ssd.config import SSDConfig

MATRIX = [(fast, traced)
          for fast in (True, False) for traced in (True, False)]


def _table3(system):
    return exp_table3_read_latency(samples=8, system=system)


def _fig7(system):
    return exp_fig7_read_bandwidth(sizes=[64 * KIB], sweep_bytes=32 * MIB,
                                   system=system)


def _run_arm(experiment, fast_path, traced):
    config = SSDConfig(sim_fast_path=fast_path)
    if not traced:
        return experiment(System(ssd_config=config)), None
    # The bus must attach before the System wires its devices so every
    # layer registers its trace scope.
    sim = Simulator()
    bus = EventBus(sim)
    result = experiment(System(sim=sim, ssd_config=config))
    return result, render_chrome_trace(bus.events)


@pytest.mark.parametrize("experiment", [_table3, _fig7],
                         ids=["table3", "fig7"])
def test_four_way_matrix(experiment):
    metrics = {}
    traces = {}
    for fast_path, traced in MATRIX:
        result, trace = _run_arm(experiment, fast_path, traced)
        metrics[(fast_path, traced)] = result.metrics
        if trace is not None:
            traces[fast_path] = trace

    baseline = metrics[(True, False)]
    assert baseline, "experiment produced no metrics"
    for arm, observed in metrics.items():
        assert observed == baseline, (
            "fast_path=%s traced=%s drifted from the fused/untraced arm"
            % arm)

    # Both traced arms step per-op (fusion de-gated), so the rendered
    # Chrome traces must be byte-identical — and non-trivial.
    assert traces[True] == traces[False]
    assert traces[True].count('"ph":"X"') > 10
