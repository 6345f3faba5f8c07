"""Device-DRAM read cache: staging NAND pages in controller DRAM.

The paper's SSD carries 1 GiB of controller DRAM (Table I) that Biscuit uses
to stage data between the NAND channels and the SSDlets.  This module models
a configurable slice of that DRAM as a read cache in front of the channels:
a read that hits pays a DRAM access instead of tR + the channel-bus transfer,
which is what makes index probes and pointer chasing (Table IV) cheap the
second time around.

Cache lines are one *physical* page (the NAND read unit — caching smaller
units would not save the sense), replaced from one LRU list.  NDP table
scans set the cache bypass and stream past it, so a sweep does not evict
the probe working set.

Correctness contract: a remapped LPN must never be served from a stale line.
The FTL drives invalidation on three edges — LPN remap (host write and GC
relocation), physical-page program (block reuse after erase), and block
erase.  The cache tracks which LPNs are resident in each line so the hooks
are O(1) per page.

The cache is a *timing* model: page payloads live in the device's logical
content store, so a stale line could only ever serve stale latency, not
stale bytes — the invalidation hooks (and their tests) keep even the timing
honest.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.instrument.metrics import Counters, MetricsRegistry
from repro.ssd.config import SSDConfig

__all__ = ["DeviceReadCache", "CacheStats"]

#: A cache line is addressed by its NAND location.
LineKey = Tuple[int, int]  # (channel, physical_page_id)


class CacheStats(Counters):
    """Running counters of cache activity.

    Plain ``int`` attributes; given a registry they are published under
    ``<prefix>.<field>`` (the system-wide one reads them at snapshot time).
    """

    FIELDS = ("hits", "misses", "insertions", "evictions", "invalidations",
              "bypasses")  # bypasses: stripes that skipped the cache (scans)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class DeviceReadCache:
    """A slice of controller DRAM caching physical pages read from NAND.

    Sized by ``SSDConfig.read_cache_bytes`` (0 = disabled, the default — the
    paper's calibration numbers are taken cold).  The controller consults it
    per stripe before dispatching to NAND; the FTL invalidates on remap,
    program, and erase.
    """

    def __init__(self, config: SSDConfig, sim=None,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "cache"):
        self.config = config
        # Simulator reference only for trace emission (``sim.trace``); the
        # cache itself never consumes simulated time.
        self.sim = sim
        self.trace_track = "ssd/cache"
        self.line_bytes = config.physical_page_bytes
        self.capacity_lines = config.read_cache_bytes // self.line_bytes
        self.stats = CacheStats(registry=registry, prefix=prefix)
        # Resident lines, least recently used first.
        self._lines: "OrderedDict[LineKey, Set[int]]" = OrderedDict()
        # Reverse index for O(1) LPN-level invalidation.
        self._by_lpn: Dict[int, LineKey] = {}

    def _trace(self):
        """The attached event bus, or None (tracing off / no simulator)."""
        return self.sim.trace if self.sim is not None else None

    # -------------------------------------------------------------- inspection
    @property
    def enabled(self) -> bool:
        return self.capacity_lines > 0

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, key: LineKey) -> bool:
        return key in self._lines

    def resident_lpns(self, key: LineKey) -> Set[int]:
        return set(self._lines.get(key, ()))

    # ------------------------------------------------------------------ lookup
    def lookup(self, channel: int, physical: int) -> bool:
        """Probe for a line; True on hit.  Updates recency."""
        if not self.enabled:
            return False
        key = (channel, physical)
        trace = self._trace()
        if key in self._lines:
            self._lines.move_to_end(key)
            self.stats.hits += 1
            if trace is not None:
                trace.instant("cache", "hit", self.trace_track,
                              channel=channel, physical=physical)
            return True
        self.stats.misses += 1
        if trace is not None:
            trace.instant("cache", "miss", self.trace_track,
                          channel=channel, physical=physical)
        return False

    def insert(self, channel: int, physical: int, lpns: Iterable[int]) -> None:
        """Fill a line after a NAND read (a resident line gains the LPNs)."""
        if not self.enabled:
            return
        key = (channel, physical)
        line = self._lines.get(key)
        if line is not None:
            for lpn in lpns:
                line.add(lpn)
                self._by_lpn[lpn] = key
            return
        line = set(lpns)
        for lpn in line:
            self._by_lpn[lpn] = key
        self._lines[key] = line
        self._evict_overflow()
        self.stats.insertions += 1
        trace = self._trace()
        if trace is not None:
            trace.instant("cache", "insert", self.trace_track,
                          channel=channel, physical=physical)

    def note_bypass(self, stripes: int = 1) -> None:
        """Record stripes that streamed past the cache (scan bypass)."""
        if self.enabled:
            self.stats.bypasses += stripes
            trace = self._trace()
            if trace is not None:
                trace.instant("cache", "bypass", self.trace_track,
                              stripes=stripes)

    # -------------------------------------------------------------- invalidate
    def invalidate_lpn(self, lpn: int) -> None:
        """An LPN was remapped (write/trim/GC): drop it from its line.

        The line itself survives while other resident LPNs are still valid;
        it is dropped once its last LPN goes.
        """
        key = self._by_lpn.pop(lpn, None)
        if key is None:
            return
        line = self._lines.get(key)
        if line is None:
            return
        line.discard(lpn)
        self.stats.invalidations += 1
        trace = self._trace()
        if trace is not None:
            trace.instant("cache", "invalidate", self.trace_track,
                          reason="lpn", lpn=lpn)
        if not line:
            del self._lines[key]

    def invalidate_physical(self, channel: int, physical: int) -> None:
        """A physical page was (re)programmed: its cached image is dead."""
        key = (channel, physical)
        line = self._lines.pop(key, None)
        if line is None:
            return
        for lpn in line:
            if self._by_lpn.get(lpn) == key:
                del self._by_lpn[lpn]
        self.stats.invalidations += 1
        trace = self._trace()
        if trace is not None:
            trace.instant("cache", "invalidate", self.trace_track,
                          reason="physical", channel=channel, physical=physical)

    def invalidate_physical_range(self, channel: int, first_physical: int,
                                  count: int) -> None:
        """A block was erased: drop every line over its physical pages."""
        for physical in range(first_physical, first_physical + count):
            self.invalidate_physical(channel, physical)

    def clear(self) -> None:
        self._lines.clear()
        self._by_lpn.clear()

    # ----------------------------------------------------------- internals
    def _evict_overflow(self) -> None:
        lines = self._lines
        trace = self._trace()
        while len(lines) > self.capacity_lines:
            key, line = lines.popitem(last=False)
            for lpn in line:
                if self._by_lpn.get(lpn) == key:
                    del self._by_lpn[lpn]
            self.stats.evictions += 1
            if trace is not None:
                trace.instant("cache", "evict", self.trace_track,
                              channel=key[0], physical=key[1])
