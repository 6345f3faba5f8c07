"""NVMe / PCIe host-interface model.

The host interface is what near-data processing avoids: every byte a Conv
read returns must cross this link (3.2 GB/s cap, Table I), and every command
pays a fixed driver/protocol cost.  Biscuit-internal reads bypass it
entirely; only SSDlet results cross it.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import Event, Simulator, all_of
from repro.sim.resources import Resource
from repro.sim.units import TransferTimes, transfer_ns
from repro.ssd.config import SSDConfig

__all__ = ["HostInterface", "Fabric"]


class Fabric:
    """A shared PCIe switch upstream of several SSDs (Scale-up, Fig. 1(b)).

    All attached devices' host transfers serialize through it at
    ``bytes_per_sec`` — the "fabric bottleneck" interference of Section V-B.
    """

    def __init__(self, sim: Simulator, bytes_per_sec: float):
        if bytes_per_sec <= 0:
            raise ValueError("fabric rate must be positive")
        self.sim = sim
        self.bytes_per_sec = bytes_per_sec
        self.link = Resource(sim, capacity=1, name="fabric")
        self.trace_track = "fabric/link"
        self.bytes_moved = 0

    def transfer(self, num_bytes: int):
        if num_bytes <= 0:
            return
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        yield self.link.request()
        try:
            yield self.sim.timeout(transfer_ns(num_bytes, self.bytes_per_sec))
        finally:
            self.link.release()
        self.bytes_moved += num_bytes
        if trace is not None:
            # Cut-through hop concurrent with the device link: the breakdown
            # report's "transfer" component only counts xfer spans on device
            # pcie tracks, so this shared-switch span never double-counts.
            trace.complete("xfer", "fabric", self.trace_track, start_ns,
                           bytes=num_bytes)


class HostInterface:
    """PCIe Gen.3 ×4 link plus NVMe queue-depth limit."""

    def __init__(self, sim: Simulator, config: SSDConfig, fabric: "Fabric" = None):
        self.sim = sim
        self.config = config
        self.fabric = fabric
        self.link = Resource(sim, capacity=1, name="pcie")
        self.queue_slots = Resource(sim, capacity=config.nvme_queue_depth, name="nvme-qd")
        self._link_ns = TransferTimes(config.pcie_bytes_per_sec)
        # Trace track for xfer events; SSDDevice rescopes it ("ssd0/pcie").
        self.trace_track = "ssd/pcie"
        self.bytes_to_host = 0
        self.bytes_to_device = 0
        self.commands = 0

    def acquire_slot(self) -> Event:
        """The event granting an NVMe queue slot (see :meth:`release_slot`)."""
        return self.queue_slots.request()

    def release_slot(self) -> None:
        self.queue_slots.release()

    def transfer_to_host(self, num_bytes: int) -> Generator:
        """Fiber: move ``num_bytes`` device→host over the shared link."""
        return self._transfer(num_bytes, "d2h")

    def transfer_to_device(self, num_bytes: int) -> Generator:
        """Fiber: move ``num_bytes`` host→device over the shared link."""
        return self._transfer(num_bytes, "h2d")

    def _transfer(self, num_bytes: int, direction: str) -> Generator:
        if num_bytes <= 0:
            return
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        self.commands += 1
        if self.fabric is None:
            if not self.link.take():
                yield self.link.request()
            try:
                hold_ns = self._link_ns[num_bytes]
                if not self.sim.advance(hold_ns):
                    yield self.sim.timeout(hold_ns)
            finally:
                self.link.release()
        else:
            # A switched PCIe fabric is cut-through, not store-and-forward: the
            # payload streams over the device link and the shared upstream
            # switch concurrently, so one transfer costs the slower of the two
            # hops — and the switch still serializes competing devices (the
            # Section V-B fabric-bottleneck interference).
            hops = [
                self.sim.process(self._link_hop(num_bytes), name="pcie-hop"),
                self.sim.process(self.fabric.transfer(num_bytes), name="fabric-hop"),
            ]
            yield all_of(self.sim, hops)
        if direction == "d2h":
            self.bytes_to_host += num_bytes
        else:
            self.bytes_to_device += num_bytes
        if trace is not None:
            trace.complete("xfer", direction, self.trace_track, start_ns,
                           bytes=num_bytes)

    def _link_hop(self, num_bytes: int) -> Generator:
        yield self.link.request()
        try:
            yield self.sim.timeout(self._link_ns[num_bytes])
        finally:
            self.link.release()
