"""SSD controller: request scheduling over channels, firmware costs, matcher control.

The controller turns logical-page requests into per-channel NAND operations.
Requests are striped across channels at physical-page granularity, so a large
read streams from all 16 channels concurrently — that concurrency *is* the
internal bandwidth advantage the paper measures in Fig. 7.

Two fast paths sit in front of the NAND:

* a **device-DRAM read cache** (:class:`repro.ssd.cache.DeviceReadCache`,
  enabled via ``SSDConfig.read_cache_bytes``) consulted per stripe — a hit
  pays a DRAM access instead of tR + the channel-bus transfer.  Streaming
  scans (matcher-engaged reads, or handles opened with ``cache_bypass``)
  stream past it so one table scan cannot evict the hot working set;
* **stripe coalescing**: adjacent same-channel stripes of one command merge
  into a multi-page channel command paying one ``STRIPE_DISPATCH_US`` (the
  per-stripe NAND operations still pipeline across the channel's dies).

Placement: pages written through the FTL read back from their mapped
location.  Pages that were never written through the FTL (paper-scale
synthetic datasets; see DESIGN.md "analytic mode") fall back to a
deterministic round-robin placement so their reads still exercise real
channel contention.
"""

from __future__ import annotations

from typing import Any, Generator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import EccError, UncorrectableReadError
from repro.instrument.metrics import Counters, MetricsRegistry
from repro.sim.engine import Event, Simulator, all_of, backoff
from repro.sim.resources import Resource
from repro.sim.units import us_to_ns
from repro.ssd.cache import DeviceReadCache
from repro.ssd.config import SSDConfig
from repro.ssd.ftl import FTL
from repro.ssd.nand import FAULT_NOT_DRAWN, NandArray

__all__ = ["Controller", "ReadStats", "Stripe"]


class Stripe(NamedTuple):
    """One per-channel unit of a striped command."""

    channel: int
    physical: int
    # Distinct logical pages resident in this stripe.  A tuple in general;
    # the arithmetic path in _group_stripes (a contiguous span) and a
    # one-page span keep a ``range`` (consumers only take len() and
    # iterate).
    lpns: Sequence[int]


#: ``Stripe(channel, physical, lpns)`` without the generated Python-level
#: ``__new__``: the arithmetic stripe path builds one per physical page.
_new_stripe = tuple.__new__


class ReadStats(Counters):
    """Running counters of controller activity (used by the benches).

    Command and page counters are charged *before* dispatch, so commands
    that die with :class:`UncorrectableReadError` still show up here (the
    retry/recovery counters record how they died).

    Plain ``int`` attributes; given a registry they are published under
    ``<prefix>.<field>`` (the system-wide one reads them at snapshot time).
    """

    FIELDS = (
        "read_commands", "write_commands", "logical_pages_read",
        "logical_pages_written", "matcher_commands",
        "coalesced_commands",  # multi-stripe channel commands issued
        "coalesced_stripes",  # stripes that rode in one (saved dispatch)
        "read_retries", "recovered_reads", "unrecoverable_reads",
        "fused_commands",  # channel commands retired through the fused path
        "fused_stripes",  # stripes those commands covered
    )

    def __init__(self, logical_page_bytes: int = 4096,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "ssd.io") -> None:
        super().__init__(registry, prefix)
        self.logical_page_bytes = logical_page_bytes

    @property
    def bytes_read(self) -> int:
        return self.logical_pages_read * self.logical_page_bytes

    @property
    def bytes_written(self) -> int:
        return self.logical_pages_written * self.logical_page_bytes


class Controller:
    """Firmware-level request orchestration."""

    # Per-stripe dispatch cost on a device core (command parsing, FTL lookup
    # batch, DMA setup).  Small enough that two Cortex-R7s never bottleneck
    # plain reads; matcher control (config.matcher_control_us_per_stripe) is
    # charged on top when the IP is engaged.  Coalesced channel commands pay
    # it once for the whole run of adjacent stripes.
    STRIPE_DISPATCH_US = 0.5

    def __init__(
        self,
        sim: Simulator,
        config: SSDConfig,
        nand: NandArray,
        ftl: FTL,
        cores: Resource,
        cache: Optional[DeviceReadCache] = None,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "ssd",
    ):
        self.sim = sim
        self.config = config
        self.nand = nand
        self.ftl = ftl
        self.cores = cores
        # A disabled cache is no cache: the read path tests for None only.
        self.cache = cache if cache is not None and cache.enabled else None
        # Firmware costs that depend only on the config, in ns.
        self._read_overhead_ns = us_to_ns(config.firmware_read_overhead_us)
        self._dispatch_ns = us_to_ns(self.STRIPE_DISPATCH_US)
        self._cache_hit_ns = us_to_ns(config.read_cache_hit_us)
        self._slots = config.logical_pages_per_physical
        self.stats = ReadStats(config.logical_page_bytes, registry=registry,
                               prefix=prefix + ".io")
        # Read/write commands currently in flight (issued, not yet completed
        # or failed).  The serving layer's least-loaded placement reads this
        # as the device's instantaneous I/O pressure.
        self.inflight_commands = 0
        # Trace tracks for ctrl/fw events; SSDDevice rescopes them ("ssd0/io").
        self.trace_io_track = "ssd/io"
        self.trace_fw_track = "ssd/fw"

    # -------------------------------------------------------------- placement
    def placement(self, lpn: int) -> Tuple[int, int]:
        """(channel, physical_page_id) for a logical page.

        Uses the FTL mapping when present; otherwise derives a deterministic
        round-robin stripe placement (synthetic data).
        """
        if self.ftl.is_mapped(lpn):
            addr = self.ftl.translate(lpn)
            physical_id = (
                (addr.die * self.config.blocks_per_die + addr.block)
                * self.config.pages_per_block
                + addr.page
            )
            return addr.channel, physical_id
        slots = self._slots
        physical_index = lpn // slots
        return physical_index % self.config.channels, physical_index

    def _group_stripes(self, lpns: Sequence[int]) -> List[Stripe]:
        """Coalesce logical pages into per-physical-page stripes.

        Duplicate LPNs in one request collapse to a single slot: the page is
        sensed and transferred once, so a request that repeats a page must
        not inflate the NAND transfer size.
        """
        if len(lpns) == 1:
            # One-page command (point read, index probe): its one stripe,
            # without the dict / set / sort below.
            channel, physical = self.placement(lpns[0])
            return [Stripe(channel, physical,
                           lpns if isinstance(lpns, range) else tuple(lpns))]
        slots = self._slots
        groups: dict = {}
        if self.ftl.mapped_pages == 0:
            # Nothing written through the FTL: placement is pure round-robin
            # arithmetic.  A contiguous ascending span yields its stripes
            # directly, with no per-LPN dict or set: the same stripes, in
            # the same order, as the loop below.  File reads reach it
            # whenever the span lies in one extent (Inode.lpns returns a
            # range and neither HostIO nor SSDDevice copies it), so every
            # scan of a synthetic or single-extent file does, and
            # sim_throughput's direct controller calls do.
            channels = self.config.channels
            if isinstance(lpns, range) and lpns.step == 1:
                start, stop = lpns.start, lpns.stop
                first, last = start // slots, (stop - 1) // slots
                # Stripe edges: the span's ends and every physical page
                # boundary between them.
                edges = [start, *range((first + 1) * slots, last * slots + 1,
                                       slots), stop]
                return [_new_stripe(Stripe, (physical % channels, physical,
                                             range(lo, hi)))
                        for physical, lo, hi in zip(range(first, last + 1),
                                                    edges, edges[1:])]
            for lpn in lpns:
                physical = lpn // slots
                groups.setdefault((physical % channels, physical),
                                  set()).add(lpn)
        else:
            for lpn in lpns:
                channel, physical = self.placement(lpn)
                groups.setdefault((channel, physical), set()).add(lpn)
        return [
            Stripe(channel, physical, tuple(sorted(page_lpns))[:slots])
            for (channel, physical), page_lpns in groups.items()
        ]

    def _coalesce(self, stripes: List[Stripe],
                  use_matcher: bool) -> List[List[Stripe]]:
        """Merge adjacent same-channel stripes into multi-page commands.

        Adjacency: consecutive physical ids in the channel's sorted stripe
        order no further apart than the channel count (covers both
        FTL-contiguous pages and the synthetic round-robin stride).  Matcher
        reads never coalesce — the IP is reconfigured per stripe, so there
        is no dispatch to amortize.
        """
        limit = 1 if use_matcher else self.config.read_coalesce_limit
        if limit <= 1 or len(stripes) <= 1:
            return [[stripe] for stripe in stripes]
        batches: List[List[Stripe]] = []
        if type(stripes[0].lpns) is range:
            # Contiguous-span stripes (the arithmetic path in
            # _group_stripes, the only producer of several range stripes)
            # are consecutive physical pages, so a channel's stripes are
            # every ``channels``-th one, sorted with a physical stride of
            # exactly the channel count: every consecutive pair is adjacent
            # and the runs are plain fixed-size chunks — the runs the loop
            # below would build.
            channels = self.config.channels
            for run in sorted((stripes[i::channels]
                               for i in range(min(channels, len(stripes)))),
                              key=lambda run: run[0].channel):
                batches.extend(run[i:i + limit]
                               for i in range(0, len(run), limit))
            return batches
        per_channel: dict = {}
        for stripe in stripes:
            per_channel.setdefault(stripe.channel, []).append(stripe)
        for channel in sorted(per_channel):
            run: List[Stripe] = []
            for stripe in sorted(per_channel[channel],
                                 key=lambda s: s.physical):
                if (run and len(run) < limit
                        and stripe.physical - run[-1].physical
                        <= self.config.channels):
                    run.append(stripe)
                else:
                    if run:
                        batches.append(run)
                    run = [stripe]
            batches.append(run)
        return batches

    # ------------------------------------------------------------------ read
    def read_pages(self, lpns: Sequence[int], use_matcher: bool = False,
                   cache_bypass: bool = False) -> Generator:
        """Fiber: read logical pages, striped across channels.

        With ``use_matcher`` the per-channel matcher IP is engaged: data flows
        through the matchers at wire speed, but each stripe costs extra
        device-CPU time to control the IP.  Matcher reads (and reads with
        ``cache_bypass``) stream past the device-DRAM read cache.
        """
        if not lpns:
            return 0
        trace = self.sim.trace
        cmd_id = trace.next_id() if trace is not None else 0
        cmd_start_ns = self.sim.now if trace is not None else 0
        stripes = self._group_stripes(lpns)
        # Command/page accounting happens before dispatch so reads that die
        # with UncorrectableReadError are still visible in the stats.
        stats = self.stats
        stats.read_commands += 1
        self.inflight_commands += 1
        stats.logical_pages_read += (
            len(lpns) if isinstance(lpns, range)  # ranges hold no duplicates
            else sum([len(s.lpns) for s in stripes]))
        if use_matcher:
            stats.matcher_commands += 1
            # A matcher-engaged read is a streaming scan by construction:
            # never let it thrash the hot working set.
            cache_bypass = True
            if trace is not None:
                trace.instant("matcher", "engage", self.trace_fw_track,
                              cmd=cmd_id, stripes=len(stripes))
        try:
            # Per-command firmware cost on a device core.
            if not self.cores.take():
                yield self.cores.request()
            try:
                if not self.sim.advance(self._read_overhead_ns):
                    yield self.sim.timeout(self._read_overhead_ns)
            finally:
                self.cores.release()
            if trace is not None:
                trace.complete("fw", "read-overhead", self.trace_fw_track, cmd_start_ns)
            batches = self._coalesce(stripes, use_matcher)
            for batch in batches:
                if len(batch) > 1:
                    stats.coalesced_commands += 1
                    stats.coalesced_stripes += len(batch) - 1
            if len(batches) == 1:
                # Fast path: single-channel commands (point reads, index
                # probes) run inline — no fan-out fibers to spawn or join.
                yield from self._read_batch(batches[0], use_matcher,
                                            cache_bypass)
            else:
                ops = [
                    self.sim.process(
                        self._read_batch(batch, use_matcher, cache_bypass),
                        name="stripe ch%d" % batch[0].channel,
                    )
                    for batch in batches
                ]
                yield all_of(self.sim, ops)
        finally:
            self.inflight_commands -= 1
        if trace is not None:
            trace.complete("ctrl", "read", self.trace_io_track, cmd_start_ns,
                           cmd=cmd_id, pages=len(lpns), stripes=len(stripes),
                           matcher=use_matcher)
        return len(lpns)

    def _read_batch(self, batch: List[Stripe], use_matcher: bool,
                    cache_bypass: bool) -> Generator:
        """Fiber: one channel command covering a run of adjacent stripes."""
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        dispatch_us = self.STRIPE_DISPATCH_US
        if use_matcher:
            dispatch_us += self.config.matcher_control_us_per_stripe * len(batch)
        if not self.cores.take():
            yield self.cores.request()
        try:
            hold_ns = us_to_ns(dispatch_us) if use_matcher else self._dispatch_ns
            if not self.sim.advance(hold_ns):
                yield self.sim.timeout(hold_ns)
        finally:
            self.cores.release()
        if trace is not None:
            trace.complete("fw", "dispatch", self.trace_fw_track, start_ns)
        channel = self.nand.channels[batch[0].channel]
        cache = self.cache
        caching = cache is not None and not cache_bypass
        # Fault outcomes for the whole channel command are drawn here, at
        # dispatch, in stripe order — whether or not the fused fast path
        # engages — so the injector's seeded stream is consumed identically
        # with the fast path on and off.  Cache-eligible reads keep drawing
        # inside Channel.read instead: a hit performs no NAND attempt and
        # must not consume a draw.
        faults: Optional[List[Any]] = None
        if channel.injector is not None and not caching:
            faults = [channel.injector.draw_read(channel.index, s.physical)
                      for s in batch]
        if (len(batch) > 1 and self.config.sim_fast_path and not caching
                and (faults is None
                     or all(fault is None for fault in faults))):
            # Only multi-stripe commands fuse: a one-page read is one die
            # hold and one bus hold, cheaper per-event than as a plan.
            # Multi-stripe commands commit their die requests at the op
            # fibers' bootstrap events, one event after this dispatch
            # fiber — a same-timestep interferer scheduled in between is
            # served first on the per-event path.  Decide fusion from a
            # single spawned fiber at exactly that position so the FIFO
            # order (and hence every timestamp) matches bit-for-bit.
            proc = self.sim.process(
                self._fuse_or_fan(channel, batch, cache_bypass),
                name="fuse ch%d" % batch[0].channel)
            yield proc
            return
        if len(batch) == 1:
            yield from self._read_stripe(
                batch[0], cache_bypass,
                fault=faults[0] if faults is not None else FAULT_NOT_DRAWN)
            return
        # The batched stripes still land on distinct dies/pages: issue their
        # media operations concurrently so the channel keeps pipelining
        # senses against bus transfers (only the dispatch was amortized).
        ops = [
            self.sim.process(
                self._read_stripe(
                    stripe, cache_bypass,
                    fault=faults[i] if faults is not None else FAULT_NOT_DRAWN),
                name="page ch%d p%d" % (stripe.channel, stripe.physical))
            for i, stripe in enumerate(batch)
        ]
        yield all_of(self.sim, ops)

    def _fuse_or_fan(self, channel, batch: List[Stripe],
                     cache_bypass: bool) -> Generator:
        """Fiber: fuse a clean multi-stripe command, or fan out per-event.

        Runs as one spawned process standing in for the batch's op fibers:
        its bootstrap event sits where the first op fiber's would, and the
        ops' die requests would occupy the immediately following event
        positions, which nothing else can be scheduled between.  So fusing
        here (claiming the whole analytic schedule at once) or falling back
        (creating the die requests synchronously in stripe order) both land
        the batch in exactly the per-event path's FIFO positions.
        """
        fused = channel.try_fuse_reads(
            tuple(len(s.lpns) * self.config.logical_page_bytes
                  for s in batch))
        if fused is not None:
            cache = self.cache
            if cache is not None:
                for _stripe in batch:
                    cache.note_bypass()
            self.stats.fused_commands += 1
            self.stats.fused_stripes += len(batch)
            yield fused
            return
        if channel.fastpath.active:
            channel.fastpath.materialize()
        requests = [channel.dies.request() for _stripe in batch]
        ops = [
            self.sim.process(
                self._read_stripe(stripe, cache_bypass, fault=None,
                                  die_request=request),
                name="page ch%d p%d" % (stripe.channel, stripe.physical))
            for stripe, request in zip(batch, requests)
        ]
        yield all_of(self.sim, ops)

    def _read_stripe(self, stripe: Stripe, cache_bypass: bool,
                     fault: Any = FAULT_NOT_DRAWN,
                     die_request: Optional[Event] = None) -> Generator:
        cache = self.cache
        if cache is not None:
            if cache_bypass:
                cache.note_bypass()
            elif cache.lookup(stripe.channel, stripe.physical):
                # Served from controller DRAM: no sense, no channel bus.
                if self._cache_hit_ns > 0:
                    yield self.sim.timeout(self._cache_hit_ns)
                return
        transfer = len(stripe.lpns) * self.config.logical_page_bytes
        attempt = 0
        while True:
            try:
                yield from self.nand.channels[stripe.channel].read(
                    transfer, physical_page=stripe.physical, fault=fault,
                    die_request=die_request)
            except EccError as exc:
                attempt += 1
                fault = FAULT_NOT_DRAWN  # each retry is a fresh draw
                die_request = None  # and queues for its die anew
                self.stats.read_retries += 1
                if self.sim.trace is not None:
                    self.sim.trace.instant(
                        "ctrl", "retry", self.trace_io_track,
                        channel=stripe.channel, physical=stripe.physical,
                        attempt=attempt)
                if attempt > self.config.read_retry_limit:
                    self.stats.unrecoverable_reads += 1
                    raise UncorrectableReadError(
                        "read retries exhausted after %d attempts" % attempt,
                        channel=stripe.channel, page=stripe.physical) from exc
                # Read-retry with a shifted sense voltage; each pass waits a
                # little longer before hitting the die again.
                backoff_us = self.config.read_retry_backoff_us * attempt
                if backoff_us > 0:
                    yield from backoff(
                        self.sim, us_to_ns(backoff_us), "ctrl",
                        "retry-backoff", self.trace_io_track, attempt=attempt)
            except UncorrectableReadError:
                self.stats.unrecoverable_reads += 1
                raise
            else:
                if attempt:
                    self.stats.recovered_reads += 1
                if cache is not None and not cache_bypass:
                    cache.insert(stripe.channel, stripe.physical, stripe.lpns)
                return

    # ----------------------------------------------------------------- write
    def write_pages(self, lpns: Sequence[int]) -> Generator:
        """Fiber: write logical pages through the FTL."""
        if not lpns:
            return
        trace = self.sim.trace
        cmd_id = trace.next_id() if trace is not None else 0
        cmd_start_ns = self.sim.now if trace is not None else 0
        # Accounted before dispatch, like reads: a write that dies mid-GC
        # (OutOfSpaceError, UncorrectableReadError) was still issued.
        self.stats.write_commands += 1
        self.stats.logical_pages_written += len(lpns)
        self.inflight_commands += 1
        try:
            yield from self._occupy_core(
                self.config.firmware_write_overhead_us,
                label="write-overhead")
            yield from self.ftl.write(list(lpns))
        finally:
            self.inflight_commands -= 1
        if trace is not None:
            trace.complete("ctrl", "write", self.trace_io_track, cmd_start_ns,
                           cmd=cmd_id, pages=len(lpns))

    def flush(self) -> Generator:
        yield from self.ftl.flush()

    # ------------------------------------------------------------- device CPU
    def _occupy_core(self, duration_us: float,
                     label: Optional[str] = None) -> Generator:
        """Hold one device core for ``duration_us`` (models firmware CPU).

        With ``label`` (and tracing on), the occupation is emitted as an
        ``fw`` span — the span starts at the request, so core-queueing time
        counts as firmware handling latency.
        """
        if duration_us <= 0:
            return
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        if not self.cores.take():
            yield self.cores.request()
        try:
            hold_ns = us_to_ns(duration_us)
            if not self.sim.advance(hold_ns):
                yield self.sim.timeout(hold_ns)
        finally:
            self.cores.release()
        if trace is not None and label is not None:
            trace.complete("fw", label, self.trace_fw_track, start_ns)

    def device_compute(self, duration_us: float) -> Generator:
        """Public fiber for SSDlet / firmware compute on a device core."""
        yield from self._occupy_core(duration_us, label="compute")
