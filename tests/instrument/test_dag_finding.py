"""A finding, pinned: ``assemble_dag``'s containment almost never fires.

The bus emits a span when it *ends*, so a container is emitted after the
spans inside it, and ``assemble_dag`` links an event only to an *earlier*
emitted coverer.  On the smoke mix the DAG is therefore nearly all spawn
edges and roots: every containment edge it has joins two events that end at
the same instant, and of the events that do sit inside a longer span on
their own track it links a handful to the smallest one.  The fix (look at
later-emitted spans too) changes DAG output and is its own PR; it flips the
last assertion here to ``linked == enclosed`` (ROADMAP item 5).
"""

from collections import Counter

from repro.instrument.causal import assemble_dag, group_queries
from repro.serve.mixes import run_mix


def test_containment_links_only_spans_that_end_together():
    events = run_mix("smoke", seed=2016, horizon_s=0.4, trace=True).bus.events
    kinds = Counter()
    same_instant = enclosed = linked = 0
    for trace in group_queries(events):
        nodes = assemble_dag(trace)
        on_track = {}
        for index, event in enumerate(trace.events):
            if event.dur_ns is not None:
                on_track.setdefault(event.track, []).append((index, event))
        for node in nodes:
            kinds[node.kind] += 1
            event = node.event
            if node.kind == "contain":
                same_instant += nodes[node.parent].event.end_ns == event.end_ns
            # Strictly longer same-track spans around this event, whenever
            # they were emitted: (duration, emission index), smallest first.
            around = sorted(
                (other.dur_ns, index) for index, other in on_track.get(event.track, ())
                if other.ts_ns <= event.ts_ns and event.end_ns <= other.end_ns
                and other.dur_ns > (event.dur_ns or 0))
            if around:
                enclosed += 1
                linked += node.kind == "contain" and node.parent == around[0][1]
    assert sum(kinds.values()) == len(events) == 18584
    assert (kinds["spawn"], kinds["root"], kinds["contain"]) == (11798, 6581, 205)
    assert same_instant == kinds["contain"]
    assert enclosed == 2013
    assert linked == 69
