"""NAND flash channel and die timing model.

Each channel has ``dies_per_channel`` dies and one shared channel bus.  A
page read occupies a die for the sense time (tR) and then the bus for the
data transfer; with several dies per channel, senses overlap the bus and the
channel streams at its wire rate — exactly the pipelining that gives the
paper's SSD its >4 GB/s internal bandwidth.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.core.errors import DeviceCrashedError, EccError, UncorrectableReadError
from repro.sim.engine import Event, Simulator
from repro.sim.fastpath import ChannelFastPath
from repro.sim.resources import Resource
from repro.sim.units import TransferTimes, us_to_ns
from repro.ssd.config import SSDConfig

__all__ = ["Channel", "NandArray", "FAULT_NOT_DRAWN"]

#: Sentinel for Channel.read's ``fault`` parameter: "draw from the injector
#: yourself".  Distinct from None, which means "pre-drawn, and clean".
FAULT_NOT_DRAWN: Any = object()


class Channel:
    """One flash channel: a die pool and a shared bus.

    ``injector`` (optional, see :mod:`repro.testing.faults`) is consulted on
    every page read: it may stretch the sense time (latency spike), hold the
    bus (transient channel stall), or fail the read with an ECC or
    uncorrectable error.  Failed reads consume the sense time but transfer
    nothing; the controller owns the retry policy.
    """

    def __init__(self, sim: Simulator, config: SSDConfig, index: int):
        self.sim = sim
        self.config = config
        self.index = index
        self.dies = Resource(sim, capacity=config.dies_per_channel, name="ch%d.dies" % index)
        self.bus = Resource(sim, capacity=1, name="ch%d.bus" % index)
        self.injector = None
        self._sense_ns = us_to_ns(config.nand_read_us)  # tR
        self._program_ns = us_to_ns(config.nand_program_us)  # tPROG
        self._erase_ns = us_to_ns(config.nand_erase_us)  # tBERS
        self._bus_ns = TransferTimes(config.channel_bytes_per_sec)
        # Analytic event-fusion state (repro.sim.fastpath).  Engaged by the
        # controller via try_fuse_reads when SSDConfig.sim_fast_path is on;
        # any per-event traffic arriving below de-fuses it first.
        self.fastpath = ChannelFastPath(sim, self.dies, self.bus,
                                        self._sense_ns, self._bus_ns,
                                        self._fused_done)
        # Trace track for nand.* events; SSDDevice rescopes it ("ssd0/ch3").
        self.trace_track = "ssd/ch%d" % index
        self.bytes_read = 0
        self.bytes_written = 0
        self.reads = 0
        self.programs = 0
        self.erases = 0

    def _fused_done(self, nbytes: int, reads: int) -> None:
        self.bytes_read += nbytes
        self.reads += reads

    def try_fuse_reads(self, sizes: Tuple[int, ...]) -> Optional[Event]:
        """Try to run a batch of page reads analytically: the returned
        event triggers when the whole batch is done, one event instead of
        ~6 per op.  None when the channel must stay per-event.  ``sizes``
        are the per-page transfer bytes in arrival order.  The caller
        guarantees no fault is pending for any of these reads and that
        tracing is off (traced runs need every event).
        """
        if self.sim.trace is not None:
            return None
        if self.sim.race is not None:
            # The race monitor footprints per-event dispatch; a fused plan
            # collapses ~6 events per op into one settle event the monitor
            # cannot see into.  Sanitized runs therefore step per-event,
            # like traced runs.
            return None
        page_bytes = self.config.physical_page_bytes
        for transfer_bytes in sizes:
            if not 0 < transfer_bytes <= page_bytes:
                raise ValueError("transfer of %d bytes from a %d-byte page"
                                 % (transfer_bytes, page_bytes))
        return self.fastpath.try_fuse(sizes)

    def read(self, transfer_bytes: int,
             physical_page: Optional[int] = None,
             fault: Any = FAULT_NOT_DRAWN,
             die_request: Optional[Event] = None) -> Generator:
        """Read one physical page, transferring ``transfer_bytes`` of it.

        Fiber: occupies a die for tR, then the channel bus for the transfer.
        ``transfer_bytes`` may be less than the physical page when only some
        logical sub-pages are wanted.  ``physical_page`` is carried for fault
        injection and error context only.  ``fault`` lets the controller
        pass a pre-drawn injector outcome (it draws per channel command so
        the stream is consumed identically with the fast path on and off);
        by default the read draws its own.  ``die_request`` lets the
        controller's fan-out path pass a die request it already enqueued
        (to pin the batch's FIFO positions); only safe with a pre-drawn
        clean ``fault``, since a crash outcome would leak the grant.
        """
        config = self.config
        if not 0 < transfer_bytes <= config.physical_page_bytes:
            raise ValueError("transfer of %d bytes from a %d-byte page"
                             % (transfer_bytes, config.physical_page_bytes))
        if fault is FAULT_NOT_DRAWN:
            fault = None
            if self.injector is not None:
                fault = self.injector.draw_read(self.index, physical_page)
        if fault is not None and fault.kind == "crash":
            # The whole device is dark: fail fast without occupying a die —
            # there is no sense to time when the controller itself is gone.
            # (No de-fusion either: the per-event path touches nothing here.)
            raise DeviceCrashedError("device crashed",
                                     channel=self.index, page=physical_page)
        if self.fastpath.active:
            # Per-event traffic interferes with the in-flight fused plans:
            # fall back to per-event stepping before touching the channel.
            self.fastpath.materialize()
        sim = self.sim
        trace = sim.trace
        start_ns = sim.now if trace is not None else 0
        if die_request is not None:
            yield die_request
        elif not self.dies.take():
            yield self.dies.request()
        try:
            if trace is not None and self.sim.now > start_ns:
                # Queueing ahead of the media: the op waited for a free die.
                trace.complete("nand", "die-wait", self.trace_track, start_ns)
            sense_start_ns = self.sim.now if trace is not None else 0
            sense_ns = self._sense_ns
            if fault is not None and fault.kind == "spike":
                sense_ns += fault.extra_ns
            if not sim.advance(sense_ns):
                yield sim.timeout(sense_ns)
            if fault is not None and fault.kind in ("ecc", "uncorrectable"):
                if trace is not None:
                    # The sense time was consumed but nothing transferred;
                    # attribution charges it to the retry, not to NAND busy.
                    trace.complete("nand", "read-failed", self.trace_track,
                                   sense_start_ns, page=physical_page,
                                   kind=fault.kind)
                if fault.kind == "ecc":
                    raise EccError("ECC decode failed",
                                   channel=self.index, page=physical_page)
                raise UncorrectableReadError("media read failed",
                                             channel=self.index, page=physical_page)
            bus_wait_ns = self.sim.now if trace is not None else 0
            if not self.bus.take():
                yield self.bus.request()
            try:
                if trace is not None and self.sim.now > bus_wait_ns:
                    trace.complete("nand", "bus-wait", self.trace_track,
                                   bus_wait_ns)
                if fault is not None and fault.kind == "stall":
                    # The channel wedges with the bus held: every other die's
                    # transfer on this channel waits it out too.
                    yield sim.timeout(fault.extra_ns)
                hold_ns = self._bus_ns[transfer_bytes]
                if not sim.advance(hold_ns):
                    yield sim.timeout(hold_ns)
            finally:
                self.bus.release()
        finally:
            self.dies.release()
        self.bytes_read += transfer_bytes
        self.reads += 1
        if trace is not None:
            trace.complete("nand", "read", self.trace_track, sense_start_ns,
                           bytes=transfer_bytes, page=physical_page)

    def program(self, transfer_bytes: int) -> Generator:
        """Program one physical page (bus transfer in, then tPROG on the die)."""
        config = self.config
        if not 0 < transfer_bytes <= config.physical_page_bytes:
            raise ValueError("program of %d bytes into a %d-byte page"
                             % (transfer_bytes, config.physical_page_bytes))
        if self.fastpath.active:
            self.fastpath.materialize()
        sim = self.sim
        trace = sim.trace
        start_ns = sim.now if trace is not None else 0
        if not self.dies.take():
            yield self.dies.request()
        try:
            if not self.bus.take():
                yield self.bus.request()
            try:
                hold_ns = self._bus_ns[transfer_bytes]
                if not sim.advance(hold_ns):
                    yield sim.timeout(hold_ns)
            finally:
                self.bus.release()
            program_ns = self._program_ns
            if not sim.advance(program_ns):
                yield sim.timeout(program_ns)
        finally:
            self.dies.release()
        self.bytes_written += transfer_bytes
        self.programs += 1
        if trace is not None:
            trace.complete("nand", "program", self.trace_track, start_ns,
                           bytes=transfer_bytes)

    def erase(self) -> Generator:
        """Erase one block (die busy for tBERS; no bus traffic)."""
        if self.fastpath.active:
            self.fastpath.materialize()
        sim = self.sim
        trace = sim.trace
        start_ns = sim.now if trace is not None else 0
        if not self.dies.take():
            yield self.dies.request()
        try:
            erase_ns = self._erase_ns
            if not sim.advance(erase_ns):
                yield sim.timeout(erase_ns)
        finally:
            self.dies.release()
        self.erases += 1
        if trace is not None:
            trace.complete("nand", "erase", self.trace_track, start_ns)


class NandArray:
    """All channels of the device."""

    def __init__(self, sim: Simulator, config: SSDConfig):
        self.sim = sim
        self.config = config
        self.channels = [Channel(sim, config, i) for i in range(config.channels)]

    def __getitem__(self, index: int) -> Channel:
        return self.channels[index]

    def attach_injector(self, injector) -> None:
        """Install (or clear, with ``None``) a fault injector on every channel."""
        for channel in self.channels:
            channel.injector = injector

    def __len__(self) -> int:
        return len(self.channels)

    @property
    def bytes_read(self) -> int:
        return sum(channel.bytes_read for channel in self.channels)

    @property
    def bytes_written(self) -> int:
        return sum(channel.bytes_written for channel in self.channels)
