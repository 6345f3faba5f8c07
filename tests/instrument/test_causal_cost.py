"""What attributing one span costs, counted — not timed.

``sys.settrace`` reports a ``line`` event for every source line executed;
counted inside ``instrument/causal.py`` only, the numbers repeat exactly
(the ``tests/sim/test_engine_cost.py`` idiom).  Each of the three passes is
one sort plus one sweep, so a query of twice the spans costs twice the
lines: 25 / 11 / 13 per span today for attribute / critical path / group
on the synthetic query below, where the quadratic passes they replaced
(``reference_causal.py``) execute 9,762 / 3,865 lines per span at 4,000
spans and half that at 2,000 (DESIGN.md "Causal tracing & attribution",
*Cost*).
"""

import sys

import pytest

from repro.instrument import causal
from repro.instrument.events import TraceEvent

KINDS = [("driver", "submit"), ("fw", "dispatch"), ("nand", "die-wait"),
         ("nand", "read"), ("nand", "read"), ("xfer", "d2h"),
         ("ctrl", "read"), ("port", "get"), ("driver", "complete")]
TRACKS = ["host/io0", "ssd0/fw", "ssd0/ch0", "ssd0/ch1", "ssd0/pcie"]
QIDS = ["cost/q", "cost/q", "cost/q+hedge0", "cost/q+hedge0+retry1"]
LINES_PER_SPAN_CEILING = 40
DOUBLING_RATIO_CEILING = 2.2


def synthetic_events(count):
    """One query of ``count`` overlapping spans over five tracks, with child
    scopes, in bus (end-time) order; every tenth event is an instant at the
    end of the span before it, on its track."""
    events = []
    for index in range(count):
        cat, name = KINDS[index % len(KINDS)]
        args = {"q": QIDS[index % len(QIDS)], "tn": "t0"}
        if index % 10 == 9:
            before = events[-1]
            events.append(TraceEvent(before.end_ns, None, "cache", "hit",
                                     before.track, args))
        else:
            events.append(TraceEvent(
                index * 10, 6 + (index * 7) % 40, cat, name,
                TRACKS[(index * 3) % len(TRACKS)], args))
    events.sort(key=lambda event: event.end_ns)
    return events


def lines_in_causal(function, argument):
    """(result, line events executed inside causal.py) of one call."""
    filename = causal.__file__
    count = 0

    def local(frame, event, _arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, _arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = function(argument)
    finally:
        sys.settrace(previous)
    return result, count


PASSES = {
    "group_queries": lambda events, trace: (causal.group_queries, events),
    "attribute_query": lambda events, trace: (causal.attribute_query, trace),
    "critical_path": lambda events, trace: (causal.critical_path, trace),
}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_lines_per_span_are_bounded_and_linear(name):
    lines = {}
    for count in (2000, 4000):
        events = synthetic_events(count)
        (trace,) = causal.group_queries(events)
        assert len(trace.events) == count
        function, argument = PASSES[name](events, trace)
        result, lines[count] = lines_in_causal(function, argument)
        assert result
        assert lines[count] / count <= LINES_PER_SPAN_CEILING, lines
    assert lines[4000] / lines[2000] <= DOUBLING_RATIO_CEILING, lines


def test_the_synthetic_query_exercises_every_pass():
    """The counts above mean something only if the input is not degenerate:
    overlaps to sweep and a long path to walk."""
    (trace,) = causal.group_queries(synthetic_events(2000))
    totals = causal.attribute_query(trace)
    assert sum(1 for name in causal.COMPONENTS if totals[name]) >= 6
    assert len(causal.critical_path(trace)) > 500


def test_a_traced_fig10_query_is_attributable():
    """One traced TPC-H Q14 CONV at the benchmark's SF 0.0015: ~90 k events
    under one qid, where the quadratic passes took minutes each."""
    from repro.db.planner import ExecutionMode, create_engine
    from repro.db.tpch.datagen import load_tpch
    from repro.db.tpch.queries import run_query
    from repro.host.platform import System
    from repro.instrument.events import traced_simulator

    sim, bus = traced_simulator()
    system = System(sim=sim)
    engine = create_engine(system, load_tpch(system.fs, 0.0015),
                           ExecutionMode.CONV)
    with sim.scope("tpch/q14-conv"):
        run_query(engine, 14)
    (trace,) = causal.group_queries(bus.events)
    assert len(trace.events) > 80000

    totals = causal.attribute_query(trace)
    assert sum(totals[name] for name in causal.COMPONENTS) == totals["end_to_end"]
    assert totals["end_to_end"] == trace.latency_ns
    assert totals["other"] * 100 < totals["end_to_end"]

    path = causal.critical_path(trace)
    assert len(path) > 40000
    assert path[0].ts_ns == trace.start_ns
    assert path[-1].end_ns == trace.end_ns
    # Contiguous: a step reaches the next one, or nothing at all was active
    # in between — and that uncovered time is exactly the sweep's ``other``.
    gaps = 0
    for step, following in zip(path, path[1:]):
        assert step.end_ns <= following.end_ns
        gaps += max(0, following.ts_ns - step.end_ns)
    assert gaps == totals["other"]
