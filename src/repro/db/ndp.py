"""The ScanFilter SSDlet: MiniDB's offloaded scan, built on the Biscuit API.

This is the XtraDB datapath rewrite of Section V-C: the host engine hands
the SSD a (file, predicate, projection) description; ScanFilter SSDlets
stream the table through the per-channel matcher IP at wire speed, refine
only the matched pages in software on the device cores, and ship the
surviving projected rows back in serialized batches over device-to-host
ports.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core import (
    SSD,
    Application,
    DeviceFile,
    Packet,
    SSDLet,
    SSDLetProxy,
    SSDletModule,
)
from repro.db import kernels
from repro.db.executor import AggPlan, Engine, PlanStep, Rel, TableRef
from repro.db.expr import Col

__all__ = ["NDP_MODULE", "ScanFilter", "ScanAggregate", "NDPContext",
           "ScanSpec", "page_ranges", "run_offloaded_scan", "scan_kernels"]

NDP_MODULE = SSDletModule("minidb-ndp")

#: Pages streamed per matcher command (one IP configuration amortizes over
#: a large chunk; Section V-A notes the IP scans "a configurable amount of
#: data retrieved from the storage medium").
CHUNK_PAGES = 1024

RowsKernel = Callable[[List[tuple]], List[tuple]]


@dataclass
class ScanSpec:
    """One offloaded scan's inputs (on a replicated system the table must
    exist at ``path`` on every device the scan may run on).

    The three row functions are *batch kernels*: one page's ``List[tuple]``
    in, a list out, called once per page (:mod:`repro.db.kernels` generates
    them from an ``Expr``; a hand-written comprehension serves as well).
    """

    path: str
    page_rows: Callable[[int], List[tuple]]  # on-page data, value level
    prefilter: RowsKernel  # keeps the rows the matcher-offloaded conjunct hits
    predicate: RowsKernel  # keeps the rows passing the full WHERE clause
    project: RowsKernel  # survivors -> the projected tuples ScanFilter ships
    page_size: int
    num_pages: int
    batch_rows: int = 512  # rows per D2H result packet
    workers: int = 2
    use_matcher: bool = True  # False = device software scan (Section VI)
    #: ``fold(states, rows)`` — an :meth:`AggPlan.fold` kernel: fold the
    #: survivors into aggregate states (ScanAggregate) instead of shipping
    #: them as row batches (ScanFilter).
    fold: Optional[Callable[[dict, List[tuple]], dict]] = None


# ------------------------------------------------------------- device side
class _PageStream(SSDLet):
    """The device-side scan loop; a subclass is the sink for its survivors.

    Args: (file_token, spec, first_page, num_pages, checkpoint_pages) — one
    page range of a :class:`ScanSpec`; ``checkpoint_pages`` is None or the
    resilient datapath's chunk size.  A sink is two pure hooks,
    ``absorb(rows)`` (one matched page's survivors in, payloads now due to
    ship out) and ``flush(end_page=None)`` (whatever is pending as a
    payload, None when it is not worth a packet): the loop owns every
    simulated event, so both SSDlets pay for a chunk the same way.
    """

    OUT_TYPES = (Packet,)

    ROW_REFINE_US = 1.5  # evaluate the full predicate on one hit region
    PAGE_TOUCH_US = 3.0  # set up refinement for one matched page
    ROW_SINK_US: float  # what the sink spends on one surviving row

    def run(self) -> Generator:
        handle = yield from self.open(self.arg(0))
        spec, pos, num_pages, checkpoint_pages = self.args[1:]
        self.spec, self.checkpoint_pages = spec, checkpoint_pages
        page_rows, prefilter, predicate = (
            spec.page_rows, spec.prefilter, spec.predicate)
        page_size = spec.page_size
        last = pos + num_pages
        chunk_pages = (min(CHUNK_PAGES, max(1, checkpoint_pages))
                       if checkpoint_pages else CHUNK_PAGES)
        scan_rate = self._runtime.config.device_scan_bytes_per_sec_per_core
        while pos < last:
            take = min(chunk_pages, last - pos)
            length = min(take * page_size, handle.size - pos * page_size)
            # Stream the chunk through the matcher IP (wire speed; the
            # per-stripe IP-control cost is charged by the controller).
            yield from handle.read_timing_only(pos * page_size, length)
            matched_pages = 0
            candidates = 0
            survivors = 0
            for page_no in range(pos, pos + take):
                # The IP reports hit locations as data streams by; software
                # only inspects the hit regions (rows the prefilter selects),
                # never whole pages — that is what keeps device-side
                # refinement off the critical path.
                page_candidates = prefilter(page_rows(page_no))
                if not page_candidates:
                    continue  # page discarded at wire speed
                matched_pages += 1
                candidates += len(page_candidates)
                hits = predicate(page_candidates)
                survivors += len(hits)
                for payload in self.absorb(hits):
                    yield from self._put(payload)
            if not spec.use_matcher:
                # No matcher IP: the device cores scan every byte themselves
                # — the configuration Section VI says "can't simply keep up".
                yield from self.compute(
                    length / scan_rate * 1e6 + survivors * self.ROW_SINK_US
                )
            elif matched_pages:
                yield from self.compute(
                    matched_pages * self.PAGE_TOUCH_US
                    + candidates * self.ROW_REFINE_US
                    + survivors * self.ROW_SINK_US
                )
            pos += take
            if checkpoint_pages:
                # Chunk boundary: flush (even an empty batch) with the
                # marker — all rows for pages < pos are now emitted.
                yield from self._put(self.flush(end_page=pos))
        rest = self.flush()
        if rest is not None:
            yield from self._put(rest)

    def _put(self, payload: Any) -> Generator:
        yield from self.out(0).put(Packet(pickle.dumps(payload, protocol=4)))


class ScanFilter(_PageStream):
    """Device-side scan-filter-project: survivors leave as row batches.

    With ``checkpoint_pages`` set (the resilient datapath,
    :mod:`repro.resilience`), chunks shrink to that many pages and every
    payload becomes a tagged tuple ``("rows", batch, end_page_or_None)``:
    a non-None ``end_page`` is a checkpoint marker promising that every
    surviving row for pages < ``end_page`` has been emitted.  Without it,
    payloads are plain pickled row batches.
    """

    ROW_SINK_US = ROW_EMIT_US = 0.8  # serialize one surviving row

    def __init__(self) -> None:
        super().__init__()
        self.batch: List[tuple] = []

    def absorb(self, rows: List[tuple]) -> List[Any]:
        batch_rows = self.spec.batch_rows
        pending = self.batch + self.spec.project(rows)
        full = []
        for start in range(0, len(pending) - batch_rows + 1, batch_rows):
            # Mid-chunk overflow flush: carries no marker — the host must
            # stage these rows until the chunk-boundary marker commits them.
            self.batch = pending[start:start + batch_rows]
            full.append(self.flush())
        self.batch = pending[len(full) * batch_rows:]
        return full

    def flush(self, end_page: Optional[int] = None) -> Any:
        if not self.batch and end_page is None:
            return None
        batch, self.batch = self.batch, []
        if self.checkpoint_pages:
            return ("rows", batch, end_page)
        return batch


NDP_MODULE.register("idScanFilter", ScanFilter)


class ScanAggregate(_PageStream):
    """Device-side scan-filter-aggregate (extension beyond the paper).

    Output: one Packet carrying {group key: [state per agg]}.
    """

    ROW_SINK_US = ROW_AGG_US = 0.6  # update the running states for one row

    def __init__(self) -> None:
        super().__init__()
        self.states: dict = {}

    def absorb(self, rows: List[tuple]) -> List[Any]:
        self.spec.fold(self.states, rows)
        return []

    def flush(self, end_page: Optional[int] = None) -> Any:
        return self.states


NDP_MODULE.register("idScanAggregate", ScanAggregate)


# --------------------------------------------------------------- host side
def scan_kernels(positions: dict, ref: TableRef, mfilter,
                 out_cols: Sequence[str] = ()) -> Dict[str, RowsKernel]:
    """The three row kernels of an offloaded scan of ``ref`` (keyed by
    their :class:`ScanSpec` field), the matcher keyed with ``mfilter``."""
    return {
        "prefilter": kernels.select(positions, mfilter.conjunct),
        "predicate": kernels.select(positions, ref.pred),
        "project": kernels.select(positions, None, [Col(c) for c in out_cols]),
    }


def page_ranges(num_pages: int, workers: int) -> List[Tuple[int, int]]:
    """``(first_page, num_pages)`` shares, one per parallel SSDlet."""
    share = max(1, -(-num_pages // max(1, workers)))
    return [(first, min(share, num_pages - first))
            for first in range(0, num_pages, share)]


def run_offloaded_scan(
    ssd: SSD,
    mid: int,
    app_name: str,
    spec: ScanSpec,
    ranges: List[Tuple[int, int]],
    on_payload: Callable[[int, Any, int], None],
    checkpoint_pages: Optional[int] = None,
) -> Generator:
    """Fiber: the one life-cycle of an offloaded scan.

    Application → :class:`DeviceFile` → one SSDlet proxy and device-to-host
    port per page range → ``start`` → drain the ports in range order →
    ``wait`` (re-raises any SSDlet failure, e.g. an UncorrectableReadError
    from the device, into this host fiber) → ``stop`` on every exit path,
    so a failed scan hands its data channels back to the pool.

    ``on_payload(range_index, payload, packet_bytes)`` sees every packet.
    A folding scan ships exactly one packet per range, so its drain moves
    on after that packet instead of waiting for the port to close.
    """
    class_id = "idScanFilter" if spec.fold is None else "idScanAggregate"
    app = Application(ssd, app_name)
    # A full-table scan is the canonical streaming read: it must not evict
    # the device cache's hot working set (index pages, chased pointers,
    # another tenant's data), so the token streams past the cache even when
    # the matcher is off (software scan).
    token = DeviceFile(ssd, spec.path, use_matcher=spec.use_matcher,
                       cache_bypass=True)
    ports = []
    for first_page, num_pages in ranges:
        proxy = SSDLetProxy(app, mid, class_id, (
            token, spec, first_page, num_pages, checkpoint_pages))
        ports.append(app.connectTo(proxy.out(0), Packet))

    def collect() -> Generator:
        for index, port in enumerate(ports):
            while True:
                packet = yield from port.get_opt()
                if packet is None:
                    break
                on_payload(index, pickle.loads(packet.payload), len(packet))
                if spec.fold is not None:
                    break

    yield from app.run(collect())


class NDPContext:
    """Host-side NDP machinery for one device (module loaded once, on first
    use)."""

    def __init__(self, system, device: int = 0):
        self.system = system
        self.ssd = SSD(system, device_index=device)
        self._mid: Optional[int] = None

    def _ensure_module(self) -> Generator:
        """Fiber: the NDP module's id on this device (one timed load)."""
        if self._mid is None:
            self._mid = yield from self.ssd.load(NDP_MODULE)
        return self._mid

    def _scan(self, engine: Engine, step: PlanStep, app_name: str,
              positions, on_payload, out_cols=(), fold=None) -> Generator:
        """Fiber: one offloaded pass over ``step``'s table on this device;
        the kernels it runs go into ``step``."""
        mid = yield from self._ensure_module()
        ref = step.ref
        storage = engine.db.table(ref.name)
        config = engine.config
        row_kernels = scan_kernels(positions, ref, step.decision.mfilter, out_cols)
        step.kernels.update(row_kernels)
        if fold is not None:
            del step.kernels["project"]  # survivors fold on the device instead
            step.kernels["fold"] = fold
        spec = ScanSpec(
            path=storage.path,
            page_rows=lambda page_no: engine.table_page_rows(ref.name, page_no),
            **row_kernels,
            page_size=storage.page_size,
            num_pages=storage.num_pages,
            workers=config.ndp_parallel_ssdlets,
            use_matcher=config.ndp_use_matcher,
            fold=fold,
        )

        def counted(_index: int, payload: Any, nbytes: int) -> None:
            engine.ndp_result_bytes += nbytes
            on_payload(payload)

        yield from run_offloaded_scan(
            self.ssd, mid, app_name, spec,
            page_ranges(spec.num_pages, spec.workers), counted)
        engine.ndp_scans += 1

    def ndp_scan(self, engine: Engine, step: PlanStep) -> Generator:
        """Fiber: run the offloaded scan ``step`` records; returns the
        filtered relation."""
        ref = step.ref
        positions = _positions(engine, ref)
        out_cols = ref.cols or list(positions)
        rows: List[tuple] = []
        yield from self._scan(engine, step, "ndp-%s" % ref.name,
                              positions, rows.extend, out_cols=out_cols)
        return Rel(out_cols, rows)

    def ndp_aggregate(self, engine: Engine, step: PlanStep,
                      plan: AggPlan) -> Generator:
        """Fiber: run the offloaded scan+aggregate ``step`` records;
        returns ``plan``'s states, the per-SSDlet partials merged."""
        positions = _positions(engine, step.ref)
        totals: dict = {}
        yield from self._scan(
            engine, step, "ndp-agg-%s" % step.ref.name, positions,
            lambda states: plan.merge(totals, states),
            fold=plan.fold(positions))
        return totals


def _positions(engine: Engine, ref: TableRef) -> dict:
    """Column name -> position in ``ref``'s stored row tuples."""
    schema = engine.db.table(ref.name).schema
    return {name: i for i, name in enumerate(schema.column_names())}
