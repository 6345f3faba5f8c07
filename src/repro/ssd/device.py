"""The SSD device aggregate: NAND + FTL + controller + matchers + interface.

This is the object the filesystem, the Biscuit runtime and the host platform
all talk to.  It also owns the logical-page *content store*: page payloads
are kept logically (keyed by LPN) so that data correctness is independent of
physical placement, exactly as on a real device where the FTL is invisible
above the block interface.

The store holds each written byte once.  A page is a reference
``(buffer, page index)`` into the buffer it was written from: a caller's
``bytes`` is referenced as it is, and any other buffer (``bytearray``,
``memoryview``, a ``bytes`` subclass) is copied once, whole, first.  A
buffer lives as long as any of its pages is still stored; a page that is
overwritten or trimmed no longer pins it.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.ssd.cache import DeviceReadCache
from repro.ssd.config import SSDConfig
from repro.ssd.controller import Controller
from repro.ssd.ftl import FTL
from repro.ssd.nand import NandArray
from repro.ssd.nvme import HostInterface
from repro.ssd.pattern_matcher import PatternMatcher

__all__ = ["SSDDevice"]


class SSDDevice:
    """One simulated SSD."""

    def __init__(self, sim: Simulator, config: Optional[SSDConfig] = None,
                 fabric=None, metrics=None, metrics_prefix: str = "ssd"):
        self.sim = sim
        self.config = config or SSDConfig()
        self.config.validate()
        self.nand = NandArray(sim, self.config)
        # A slice of the controller DRAM staged as a read cache in front of
        # the channels (read_cache_bytes = 0 leaves it disabled).
        self.cache = DeviceReadCache(
            self.config, sim=sim, registry=metrics,
            prefix=metrics_prefix + ".cache")
        self.ftl = FTL(sim, self.config, self.nand, read_cache=self.cache)
        # The two ARM cores Biscuit may use (Table I).  Firmware I/O dispatch
        # and SSDlet compute contend for them.
        self.cores = Resource(sim, capacity=self.config.device_cores, name="device-cores")
        self.controller = Controller(sim, self.config, self.nand, self.ftl,
                                     self.cores, cache=self.cache,
                                     registry=metrics, prefix=metrics_prefix)
        self.interface = HostInterface(sim, self.config, fabric=fabric)
        self.matchers = [
            PatternMatcher(self.config, i) for i in range(self.config.channels)
        ]
        # Scope every component's trace track under one per-device process
        # name ("ssd0/ch3", "ssd0/fw", ...) so multi-SSD traces stay legible.
        scope = sim.trace.register_device() if sim.trace is not None else "ssd"
        for channel in self.nand.channels:
            channel.trace_track = "%s/ch%d" % (scope, channel.index)
        self.cache.trace_track = "%s/cache" % scope
        self.ftl.trace_track = "%s/ftl" % scope
        self.controller.trace_io_track = "%s/io" % scope
        self.controller.trace_fw_track = "%s/fw" % scope
        self.interface.trace_track = "%s/pcie" % scope
        # Logical page content (what a block device would return), as two
        # maps kept in step: LPN -> its buffer, and LPN -> the page's index
        # in that buffer.  Their keys and values are ints and bytes, so
        # neither map is GC-tracked and a page adds no tracked object (an
        # index below 257 is a shared small int).  One zero page answers
        # every LPN without content.
        self._buffers: Dict[int, bytes] = {}
        self._indexes: Dict[int, int] = {}
        self._zero_page = bytes(self.config.logical_page_bytes)
        # The device's one Biscuit runtime and channel manager, built by
        # the first host handle opened on it (``repro.core.SSD``).
        self.biscuit = None

    # ------------------------------------------------------------ content I/O
    def store_pages(self, lpns: Sequence[int], data: bytes) -> None:
        """Stage ``data`` as the content of ``lpns``, one page each, in order
        (no timing; pair with controller.write_pages).

        Page ``i`` is ``data[i * page:(i + 1) * page]``, so the last one may
        be short.  Nothing is sliced here: each page references ``data``
        (see the module docstring for the one copy a non-``bytes`` takes).
        """
        page = self.config.logical_page_bytes
        if len(data) > len(lpns) * page:
            raise ValueError("payload exceeds the pages it is staged to")
        if type(data) is not bytes:
            data = bytes(data)
        buffers, indexes = self._buffers, self._indexes
        for index, lpn in enumerate(lpns):
            buffers[lpn] = data
            indexes[lpn] = index

    def load_page(self, lpn: int) -> bytes:
        """Fetch page content (no timing; pair with controller.read_pages).

        A page that is its whole buffer comes back as that buffer itself
        (slicing an exact ``bytes`` end to end returns it), any other page
        as a slice, and an LPN without content as the device's zero page.
        """
        data = self._buffers.get(lpn)
        if data is None:
            return self._zero_page
        page = self.config.logical_page_bytes
        start = self._indexes[lpn] * page
        return data[start:start + page]

    def discard_pages(self, lpns: Sequence[int]) -> None:
        for lpn in lpns:
            self._buffers.pop(lpn, None)
            self._indexes.pop(lpn, None)
        self.ftl.trim(list(lpns))

    # -------------------------------------------------------------- timed I/O
    def internal_read(self, lpns: Sequence[int], use_matcher: bool = False,
                      cache_bypass: bool = False) -> Generator:
        """Fiber: device-internal read (the Biscuit data path, Table III).

        No host-interface crossing: this is the latency/bandwidth advantage
        NDP taps.  ``cache_bypass`` streams past the device-DRAM read cache
        (streaming scans must not evict the hot working set).
        """
        return self.controller.read_pages(lpns, use_matcher=use_matcher,
                                          cache_bypass=cache_bypass)

    def internal_write(self, lpns: Sequence[int]) -> Generator:
        """Fiber: device-internal write through the FTL."""
        return self.controller.write_pages(lpns)

    # --------------------------------------------------------------- faults
    def attach_fault_injector(self, injector) -> None:
        """Install (or clear, with ``None``) a fault injector on all channels.

        See :class:`repro.testing.faults.FaultInjector`.
        """
        self.nand.attach_injector(injector)

    # --------------------------------------------------------------- matching
    def matcher_for_lpn(self, lpn: int) -> PatternMatcher:
        channel, _physical = self.controller.placement(lpn)
        return self.matchers[channel]
