"""Static verifier for SSDlet dataflow graphs (rules RPR101-RPR107).

The paper's C++ framework rejects a mis-wired pipeline at compile time:
ports are template-typed, so a type mismatch or a dangling connection never
reaches the device.  This module recovers that property for the Python
reproduction: given a built-but-not-started :class:`~repro.core.application.
Application`, :func:`verify_graph` checks every declared link and port
*before* any simulated cycle runs and reports findings with the file:line
where the offending wiring call (or proxy declaration) happened.

``Application.start()`` calls this automatically — warn-by-default, with a
``verify="strict"`` mode that refuses to start a broken graph (and
``verify="off"`` to opt out, e.g. for tests that build graphs incrementally
across applications).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.core.links import Link, link_kind
from repro.core.errors import BiscuitError, PortConnectionError
from repro.core.types import is_serializable, spec_name

__all__ = ["verify_graph", "verify_links", "GraphVerificationError"]

_GRAPH = "<graph>"  # provenance placeholder when no call site was recorded


class GraphVerificationError(BiscuitError):
    """A pipeline failed strict graph verification."""

    def __init__(self, findings: Sequence[Finding]):
        self.findings = list(findings)
        lines = "\n".join("  " + finding.render() for finding in self.findings)
        super().__init__(
            "dataflow graph verification failed (%d finding%s):\n%s"
            % (len(self.findings), "s" if len(self.findings) != 1 else "", lines)
        )


def _site_of(obj: Any) -> Tuple[str, int]:
    site = obj.site
    if site is None:
        return _GRAPH, 0
    return site.path, site.line


def _task_label(proxy: Any) -> str:
    return getattr(proxy, "class_id", None) or type(proxy).__name__


def verify_links(links: Sequence[Link]) -> List[Finding]:
    """Check a bare list of :class:`~repro.core.links.Link` records
    (``Link(out_endpoint, in_endpoint)``; the site is optional).

    This is the "declared pipeline" entry point: it needs no Application,
    only endpoints, so loaders and tests can verify wiring they have not
    applied yet.
    """
    findings: List[Finding] = []
    for link in links:
        findings.extend(_check_link(link))
    return findings


def _check_link(link: Link) -> List[Finding]:
    out_ep, in_ep, _site = link
    path, line = _site_of(link)
    findings: List[Finding] = []
    if out_ep.direction != "out" or in_ep.direction != "in":
        findings.append(Finding(
            "RPR101",
            "link endpoints reversed: connect(%r, %r) must be "
            "(output, input)" % (out_ep.direction, in_ep.direction),
            path, line,
        ))
        return findings
    dtypes = []
    for endpoint, direction in ((out_ep, "output"), (in_ep, "input")):
        try:
            dtypes.append(endpoint.dtype)
        except PortConnectionError:
            findings.append(Finding(
                "RPR101",
                "%s has no %s port %d"
                % (_task_label(endpoint.proxy), direction, endpoint.index),
                path, line,
            ))
    if findings:
        return findings
    out_dtype, in_dtype = dtypes
    if out_dtype != in_dtype:
        findings.append(Finding(
            "RPR101",
            "%s.out(%d) is %s but %s.in(%d) is %s (no implicit conversion)"
            % (_task_label(out_ep.proxy), out_ep.index, spec_name(out_dtype),
               _task_label(in_ep.proxy), in_ep.index, spec_name(in_dtype)),
            path, line,
        ))
        return findings
    kind = link_kind(out_ep, in_ep)
    if kind.packet_transport and not is_serializable(out_dtype):
        if link.to_host_program:  # only the task's end has a name
            task_ep = in_ep if out_ep.proxy is None else out_ep
            ends = "to %s.%s(%d)" % (
                _task_label(task_ep.proxy), task_ep.direction, task_ep.index)
        else:
            ends = "%s.out(%d) -> %s.in(%d)" % (
                _task_label(out_ep.proxy), out_ep.index,
                _task_label(in_ep.proxy), in_ep.index)
        findings.append(Finding(
            "RPR107",
            "%s connection %s carries %s, which has no registered serializer"
            % (kind.value, ends, spec_name(out_dtype)),
            path, line,
        ))
    return findings


def verify_graph(app: Any) -> List[Finding]:
    """Statically verify an Application's wired-but-unstarted pipeline.

    Returns a deterministically ordered list of findings (empty when the
    graph is well-formed).  Safe to call at any point before ``start()``;
    after ``start()`` it re-checks the same declarations.
    """
    tasks: List[Any] = list(app._proxies) + list(app._host_tasks)
    task_index: Dict[int, int] = {id(proxy): i for i, proxy in enumerate(tasks)}

    # --- per-link checks (types, direction, serializability) -------------
    # Run only on this application's own links: a cross-application link is
    # reported by the application whose connect() declared it.
    findings = verify_links(app._links)

    # Inter-application links are recorded on whichever Application's
    # connect() was called; fold in links from the runtime-wide registry
    # that touch this application's tasks so its ports are not reported
    # dangling (connectivity only — their per-link findings belong to the
    # declaring application).
    links: List[Link] = app._links + app._peer_links()

    # --- connectivity maps ----------------------------------------------
    # (direction, task_pos, port_index) -> how many links bind that port
    bound: Counter = Counter()
    spsc: Set[Tuple[str, int, int]] = set()  # ports on a strictly SPSC kind
    edges: Dict[int, Set[int]] = {i: set() for i in range(len(tasks))}
    fed: Set[int] = set()  # by the host program or a peer application

    for out_ep, in_ep, _site in links:
        if out_ep.direction != "out" or in_ep.direction != "in":
            continue  # already reported
        # None: the host program's own port, or a peer application's task.
        out_pos = task_index.get(id(out_ep.proxy))
        in_pos = task_index.get(id(in_ep.proxy))
        packets = link_kind(out_ep, in_ep).packet_transport
        for pos, endpoint in ((out_pos, out_ep), (in_pos, in_ep)):
            if pos is not None:
                bound[endpoint.direction, pos, endpoint.index] += 1
                if packets:
                    spsc.add((endpoint.direction, pos, endpoint.index))
        if out_pos is None and in_pos is not None:
            fed.add(in_pos)
        if out_pos is not None and in_pos is not None:
            edges[out_pos].add(in_pos)

    # --- dangling ports (RPR102/RPR103) and SPSC overbinding (RPR104) ----
    for pos, proxy in enumerate(tasks):
        cls = proxy.task_class
        label = _task_label(proxy)
        path, line = _site_of(proxy)
        for direction, types, rule, dangling in (
            ("in", cls.IN_TYPES, "RPR102",
             "has no producer; its first get() blocks forever"),
            ("out", cls.OUT_TYPES, "RPR103",
             "has no consumer; its first put() can never drain"),
        ):
            for i, dtype in enumerate(types):
                times = bound[direction, pos, i]
                if not times:
                    findings.append(Finding(
                        rule,
                        "%s.%s(%d) [%s] %s"
                        % (label, direction, i, spec_name(dtype), dangling),
                        path, line,
                    ))
                elif times > 1 and (direction, pos, i) in spsc:
                    findings.append(Finding(
                        "RPR104",
                        "%s.%s(%d) is bound %d times but its connection kind "
                        "is SPSC" % (label, direction, i, times),
                        path, line,
                    ))

    # --- reachability (RPR105) -------------------------------------------
    roots = [
        pos for pos, proxy in enumerate(tasks)
        if not proxy.task_class.IN_TYPES or pos in fed
    ]
    reached: Set[int] = set()
    frontier = list(roots)
    while frontier:
        pos = frontier.pop()
        if pos in reached:
            continue
        reached.add(pos)
        frontier.extend(edges[pos])
    for pos, proxy in enumerate(tasks):
        if pos in reached:
            continue
        if not all(bound["in", pos, i]
                   for i in range(len(proxy.task_class.IN_TYPES))):
            continue  # RPR102 already explains why nothing arrives
        path, line = _site_of(proxy)
        findings.append(Finding(
            "RPR105",
            "%s is unreachable: no path from a data source (fileless input, "
            "host feed, or peer application) reaches it" % _task_label(proxy),
            path, line,
        ))

    # --- cycles (RPR106) --------------------------------------------------
    for cycle in _find_cycles(edges):
        members = " -> ".join(_task_label(tasks[pos]) for pos in cycle)
        path, line = _site_of(tasks[cycle[0]])
        findings.append(Finding(
            "RPR106",
            "dataflow cycle: %s -> %s (bounded queues on a cycle deadlock "
            "once full)" % (members, _task_label(tasks[cycle[0]])),
            path, line,
        ))

    findings.sort(key=lambda f: (f.rule, f.path, f.line, f.message))
    return findings


def _find_cycles(edges: Dict[int, Set[int]]) -> List[List[int]]:
    """Simple cycles, each reported once, rotated to start at the smallest
    member (deterministic regardless of discovery order)."""
    cycles: List[List[int]] = []
    seen_keys: Set[Tuple[int, ...]] = set()
    color: Dict[int, int] = {}  # 0/absent=white, 1=grey, 2=black
    stack: List[int] = []

    def visit(node: int) -> None:
        color[node] = 1
        stack.append(node)
        for succ in sorted(edges[node]):
            if color.get(succ, 0) == 0:
                visit(succ)
            elif color.get(succ) == 1:
                start = stack.index(succ)
                cycle = stack[start:]
                smallest = cycle.index(min(cycle))
                canonical = cycle[smallest:] + cycle[:smallest]
                key = tuple(canonical)
                if key not in seen_keys:
                    seen_keys.add(key)
                    cycles.append(canonical)
        stack.pop()
        color[node] = 2

    for node in sorted(edges):
        if color.get(node, 0) == 0:
            visit(node)
    cycles.sort()
    return cycles
