"""Chrome trace-event JSON exporter (loadable in Perfetto / chrome://tracing).

Maps :class:`~repro.instrument.events.TraceEvent` records onto the Chrome
trace-event format over *simulated* time: a track string ``"ssd0/ch3"``
becomes process ``ssd0`` / thread ``ch3`` — one process per device (or per
application for SSDlet tracks, plus ``host``), one track per channel / core
/ SSDlet, exactly the layout Fig. 7 and Table 3 discussions need.

Determinism: pids and tids are assigned in first-appearance order of the
event stream (which the simulator makes reproducible), metadata records are
emitted in pid/tid order, and serialization uses sorted keys with fixed
separators — two runs of the same workload produce byte-identical files
regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.instrument.events import TraceEvent, qid_root

__all__ = ["chrome_trace", "render_chrome_trace", "write_chrome_trace"]


def _split_track(track: str) -> Tuple[str, str]:
    """("process", "thread") for a track path; bare tracks get process "sim"."""
    head, sep, tail = track.partition("/")
    if not sep:
        return "sim", track
    return head, tail


def chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Build the Chrome trace-event object for an event stream."""
    events = list(events)
    # pid/tid assignment in first-appearance order.
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    threads_in: Dict[str, int] = {}    # process -> tids handed out so far
    records: List[Dict[str, Any]] = []
    for event in events:
        process, thread = _split_track(event.track)
        pid = pids.get(process)
        if pid is None:
            pid = len(pids) + 1
            pids[process] = pid
        tid_key = (process, thread)
        tid = tids.get(tid_key)
        if tid is None:
            tid = threads_in[process] = threads_in.get(process, 0) + 1
            tids[tid_key] = tid
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.cat,
            "pid": pid,
            "tid": tid,
            # Chrome trace timestamps are microseconds; dividing the integer
            # nanosecond clock by 1000.0 keeps sub-us precision and is
            # bit-deterministic.
            "ts": event.ts_ns / 1000.0,
        }
        if event.dur_ns is None:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        else:
            record["ph"] = "X"
            record["dur"] = event.dur_ns / 1000.0
        if event.args:
            record["args"] = event.args
        records.append(record)
    # Flow events bind every span of one query root ("q" arg, child-scope
    # suffix stripped) into a followable arrow chain in the Perfetto UI:
    # one flow id per root, assigned in first-appearance order.  One probe
    # per event, keyed by the full qid path (causal.group_queries' idiom).
    by_root: Dict[str, List[Dict[str, Any]]] = {}
    by_path: Dict[str, List[Dict[str, Any]]] = {}
    for record, event in zip(records, events):
        if event.dur_ns is None or not event.args:
            continue
        qid = event.args.get("q")
        if qid is None:
            continue
        members = by_path.get(qid)
        if members is None:
            members = by_path[qid] = by_root.setdefault(qid_root(qid), [])
        members.append(record)
    flows: List[Dict[str, Any]] = []
    for flow_id, (root, members) in enumerate(by_root.items(), start=1):
        if len(members) < 2:
            continue
        for position, record in enumerate(members):
            if position == 0:
                phase = "s"
            elif position == len(members) - 1:
                phase = "f"
            else:
                phase = "t"
            flow: Dict[str, Any] = {
                "name": root, "cat": "flow", "ph": phase, "id": flow_id,
                "pid": record["pid"], "tid": record["tid"],
                "ts": record["ts"],
            }
            if phase != "s":
                flow["bp"] = "e"  # bind to the enclosing slice
            flows.append(flow)
    records.extend(flows)
    metadata: List[Dict[str, Any]] = []
    for process, pid in pids.items():
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": process},
        })
    for (process, thread), tid in tids.items():
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pids[process],
            "tid": tid, "args": {"name": thread},
        })
    return {
        "traceEvents": metadata + records,
        "displayTimeUnit": "ns",
    }


def render_chrome_trace(events: Iterable[TraceEvent]) -> str:
    """Deterministic JSON string for :func:`chrome_trace`."""
    return json.dumps(chrome_trace(events), sort_keys=True,
                      separators=(",", ":")) + "\n"


def write_chrome_trace(events: Iterable[TraceEvent], path: str) -> str:
    """Write the trace JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_chrome_trace(events))
    return path
