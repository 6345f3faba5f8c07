"""Host-side I/O paths (pread / async read), charging driver CPU time.

Calibration (Table III): a 4 KiB host read is the device-internal read
(75.9 µs) + PCIe transfer (~1.2 µs) + ``nvme_command_overhead_us`` (12.8 µs)
of host driver work ≈ 90.0 µs.  The driver work is memory-bound host CPU
time, so it inflates under background load — which is exactly the Conv
degradation in Table IV.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.host.cpu import HostCPU
from repro.sim.engine import Event, Simulator
from repro.ssd.device import SSDDevice

__all__ = ["HostIO"]


class HostIO:
    """The conventional (Conv) I/O path: host syscall → NVMe → SSD → PCIe."""

    def __init__(self, sim: Simulator, cpu: HostCPU, device: SSDDevice):
        self.sim = sim
        self.cpu = cpu
        self.device = device
        # Trace track for driver/nvme events; System numbers it ("host/io0").
        self.trace_track = "host/io"
        self.reads = 0
        self.writes = 0
        self._submit_us = device.config.nvme_command_overhead_us / 2
        self._complete_us = device.config.nvme_command_overhead_us - self._submit_us

    # ----------------------------------------------------------- read / write
    def _command(self, lpns: Sequence[int], name: str) -> Generator:
        """Fiber: one synchronous NVMe command (``name``: "read" | "write").

        With tracing on, the driver work is two ``driver`` spans and the NVMe
        command lifecycle is instants (submit → fetch → execute → complete)
        plus one ``nvme/<name>`` span enveloping the whole round trip — the
        unit the latency-breakdown report decomposes into driver / firmware
        / NAND / transfer time.  Returns the page count.
        """
        trace = self.sim.trace
        cmd_id = trace.next_id() if trace is not None else 0
        start_ns = self.sim.now if trace is not None else 0
        if trace is not None:
            trace.instant("nvme", "submit", self.trace_track,
                          cmd=cmd_id, pages=len(lpns))
        yield from self.cpu.occupy(self._submit_us)
        if trace is not None:
            trace.complete("driver", "submit", self.trace_track, start_ns)
        interface = self.device.interface
        slot_wait_ns = self.sim.now if trace is not None else 0
        if not interface.queue_slots.take():
            yield interface.acquire_slot()
        try:
            if trace is not None:
                if self.sim.now > slot_wait_ns:
                    # Host-side queueing: the submission queue was full.
                    trace.complete("nvme", "slot-wait", self.trace_track,
                                   slot_wait_ns, cmd=cmd_id)
                trace.instant("nvme", "fetch", self.trace_track, cmd=cmd_id)
                trace.instant("nvme", "execute", self.trace_track, cmd=cmd_id)
            num_bytes = len(lpns) * self.device.config.logical_page_bytes
            if name == "read":
                yield from self.device.controller.read_pages(lpns)
                yield from interface.transfer_to_host(num_bytes)
            else:
                yield from interface.transfer_to_device(num_bytes)
                yield from self.device.controller.write_pages(list(lpns))
        finally:
            interface.release_slot()
        complete_ns = self.sim.now if trace is not None else 0
        yield from self.cpu.occupy(self._complete_us)
        if name == "read":
            self.reads += 1
        else:
            self.writes += 1
        if trace is not None:
            trace.complete("driver", "complete", self.trace_track, complete_ns)
            trace.instant("nvme", "complete", self.trace_track, cmd=cmd_id)
            trace.complete("nvme", name, self.trace_track, start_ns,
                           cmd=cmd_id, pages=len(lpns))
        return len(lpns)

    # The public names return the command's generator itself, so a resume
    # walks no extra frame on the one-page read path.
    def pread_pages(self, lpns: Sequence[int]) -> Generator:
        """Fiber: synchronous host read of logical pages."""
        return self._command(lpns, "read")

    def pwrite_pages(self, lpns: Sequence[int]) -> Generator:
        """Fiber: synchronous host write of logical pages."""
        return self._command(lpns, "write")

    def apread_pages(self, lpns: Sequence[int]) -> Event:
        """Asynchronous host read; returns the completion event."""
        return self.sim.process(self.pread_pages(lpns), name="apread")
