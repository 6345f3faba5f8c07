"""The sweep passes of ``instrument/causal.py`` against the quadratic ones
they replaced (``reference_causal.py``): equal on every input, key order
included — plus the scripted edges of the attribution sweep."""

import random

import pytest

from repro.instrument import causal
from repro.instrument.causal import COMPONENTS, QueryTrace
from repro.instrument.events import TraceEvent

from tests.instrument import reference_causal as reference

#: Every kind of span the taxonomy knows: one per component, the envelopes,
#: the fabric hop and two kinds no rule matches.
KINDS = sorted(causal._SPAN_COMPONENT) + sorted(causal._ENVELOPE_SPANS) + [
    ("xfer", "d2h"), ("xfer", "fabric"), ("fw", "dispatch"),
    ("driver", "submit"), ("port", "get"), ("cache", "hit"), ("ftl", "gc"),
]
QIDS = ["qa", "qa+hedge0", "qa+hedge0+retry1", "qa+retry0", "qb", "qb+h0",
        "serve/t1/j3", "serve/t1/j3+hedge0", None]
TRACKS = ["host/io0", "ssd0/ch0", "ssd0/ch1", "ssd0/ctrl", "bare"]
SIZES = (0, 1, 2, 5, 12, 40, 120)


def random_events(rng, count, tenants):
    """A seeded event list: spans (some zero-length), instants, nested child
    scopes, untagged events; ``tenants`` decides whether any carries ``tn``."""
    events = []
    for _ in range(count):
        cat, name = rng.choice(KINDS)
        ts = rng.randrange(0, 400)
        shape = rng.random()
        if shape < 0.15:
            dur = None
        elif shape < 0.30:
            dur = 0
        else:
            dur = rng.randrange(1, 120)
        qid = rng.choice(QIDS)
        args = None
        if qid is not None:
            args = {"q": qid}
            if tenants and rng.random() < 0.5:
                args["tn"] = "t%d" % rng.randrange(2)
        elif rng.random() < 0.5:
            args = {"bytes": 4096}
        events.append(TraceEvent(ts, dur, cat, name, rng.choice(TRACKS), args))
    return events


def bus_ordered(events):
    """As a bus would hold them: emission is at the end of a span."""
    return sorted(events, key=lambda event: event.end_ns)


def cases():
    for size in SIZES:
        for seed in range(6):
            for ordered in (True, False):
                for tenants in (True, False):
                    yield size, seed, ordered, tenants


def build(size, seed, ordered, tenants):
    rng = random.Random(size * 1009 + seed)
    events = random_events(rng, size, tenants)
    return (bus_ordered(events) if ordered else events), rng


def assert_same_passes(trace):
    new, old = causal.attribute_query(trace), reference.attribute_query(trace)
    assert new == old
    assert list(new) == list(old) == list(COMPONENTS) + ["end_to_end"]
    assert causal.critical_path(trace) == reference.critical_path(trace)


@pytest.mark.parametrize("size,seed,ordered,tenants", list(cases()))
def test_random_lists_agree_with_the_reference(size, seed, ordered, tenants):
    events, rng = build(size, seed, ordered, tenants)
    traces = causal.group_queries(events)
    assert traces == reference.group_queries(events)
    for trace in traces:
        assert_same_passes(trace)
    # An envelope that cuts through the spans, over untagged overlapping
    # work, as breakdown._decompose builds it.
    for _ in range(4):
        start = rng.randrange(0, 450)
        clipped = QueryTrace("", "", events, start,
                             start + rng.randrange(0, 200))
        assert_same_passes(clipped)


@pytest.mark.parametrize("seed", [11, 2016])
def test_every_query_of_a_smoke_stream_agrees(seed):
    from repro.serve.mixes import run_mix
    events = run_mix("smoke", seed=seed, horizon_s=0.1, trace=True).bus.events
    traces = causal.group_queries(events)
    assert traces == reference.group_queries(events)
    assert len(traces) > 20
    for trace in traces:
        assert_same_passes(trace)


# ------------------------------------------------------------ scripted edges
def trace_of(spans, start, end):
    events = [TraceEvent(ts, dur, cat, name, "host/x", {"q": "q"})
              for ts, dur, cat, name in spans]
    return QueryTrace("q", "", events, start, end)


def charged(trace):
    totals = causal.attribute_query(trace)
    assert totals == reference.attribute_query(trace)
    return {name: ns for name, ns in totals.items() if ns}


def test_open_and_close_of_different_ranks_at_one_instant():
    # firmware closes at 50 exactly where nand_busy (stronger) and
    # port_wait (weaker) open; nand_busy closes at 80 where driver opens.
    trace = trace_of([(0, 50, "fw", "dispatch"), (50, 30, "nand", "read"),
                      (50, 50, "port", "get"), (80, 10, "driver", "complete")],
                     0, 100)
    assert charged(trace) == {"firmware": 50, "nand_busy": 30, "driver": 10,
                              "port_wait": 10, "end_to_end": 100}


def test_closing_one_of_two_best_rank_spans_keeps_the_charge():
    trace = trace_of([(0, 60, "nand", "read"), (20, 80, "nand", "read"),
                      (0, 100, "fw", "scan")], 0, 100)
    assert charged(trace) == {"nand_busy": 100, "end_to_end": 100}


def test_span_wholly_outside_the_envelope_charges_nothing():
    trace = trace_of([(0, 40, "nand", "read"), (300, 40, "nand", "read"),
                      (100, 100, "fw", "scan"), (120, 10, "nand", "die-wait")],
                     100, 200)
    assert charged(trace) == {"firmware": 90, "channel_queue": 10,
                              "end_to_end": 100}


def test_span_touching_the_envelope_edge_charges_nothing():
    trace = trace_of([(0, 100, "nand", "read"), (200, 50, "nand", "read")],
                     100, 200)
    assert charged(trace) == {"other": 100, "end_to_end": 100}


def test_empty_trace_is_all_other():
    assert charged(QueryTrace("q", "", [], 10, 70)) == {
        "other": 60, "end_to_end": 60}


def test_zero_length_envelope():
    trace = trace_of([(0, 100, "nand", "read")], 40, 40)
    totals = causal.attribute_query(trace)
    assert totals == reference.attribute_query(trace)
    assert not any(totals.values())
    assert causal.critical_path(trace) == reference.critical_path(trace) == []


def test_first_non_empty_tenant_wins_and_bounds_cover_child_scopes():
    events = [
        TraceEvent(50, 10, "fw", "dispatch", "ssd0/ctrl", {"q": "q1+h0"}),
        TraceEvent(40, None, "cache", "hit", "ssd0/ctrl", {"q": "q1", "tn": ""}),
        TraceEvent(45, 30, "nand", "read", "ssd0/ch0", {"q": "q1", "tn": "tB"}),
        TraceEvent(10, 5, "driver", "submit", "host/x", {"q": "q1+h0+r1", "tn": "tC"}),
    ]
    (trace,) = causal.group_queries(events)
    assert (trace.qid, trace.tenant, trace.start_ns, trace.end_ns) == (
        "q1", "tB", 10, 75)
    assert trace.events == events
    assert [trace] == reference.group_queries(events)
