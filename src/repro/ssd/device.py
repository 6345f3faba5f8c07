"""The SSD device aggregate: NAND + FTL + controller + matchers + interface.

This is the object the filesystem, the Biscuit runtime and the host platform
all talk to.  It also owns the logical-page *content store*: page payloads
are kept logically (keyed by LPN) so that data correctness is independent of
physical placement, exactly as on a real device where the FTL is invisible
above the block interface.
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
        self.trace_scope = scope
        for channel in self.nand.channels:
            channel.trace_track = "%s/ch%d" % (scope, channel.index)
        self.cache.trace_track = "%s/cache" % scope
        self.ftl.trace_track = "%s/ftl" % scope
        self.controller.trace_io_track = "%s/io" % scope
        self.controller.trace_fw_track = "%s/fw" % scope
        self.interface.trace_track = "%s/pcie" % scope
        # Logical page content (what a block device would return).
        self._store: Dict[int, bytes] = {}

    # ------------------------------------------------------------ content I/O
    def store_page(self, lpn: int, data: bytes) -> None:
        """Stage page content (no timing; pair with controller.write_pages)."""
        if len(data) > self.config.logical_page_bytes:
            raise ValueError("page payload exceeds logical page size")
        self._store[lpn] = bytes(data)

    def load_page(self, lpn: int) -> bytes:
        """Fetch page content (no timing; pair with controller.read_pages)."""
        return self._store.get(lpn, b"\x00" * self.config.logical_page_bytes)

    def discard_pages(self, lpns: Sequence[int]) -> None:
        for lpn in lpns:
            self._store.pop(lpn, None)
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
