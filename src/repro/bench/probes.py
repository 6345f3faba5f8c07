"""Latency-probe SSDlets used by the Table II experiment."""

from __future__ import annotations

from typing import Generator, List

from repro.core import Packet, SSDLet, SSDletModule
from repro.core.errors import PortClosed

__all__ = ["PROBE_MODULE", "Source", "Sink"]

PROBE_MODULE = SSDletModule("latency-probe")


class Source(SSDLet):
    """Emits N small packets, one per millisecond, recording send times.

    Args: (count, payload_bytes).
    """

    OUT_TYPES = (Packet,)

    def run(self) -> Generator:
        count, payload = self.arg(0), self.arg(1)
        self.sent: List[int] = []
        sim = self._runtime.sim
        for _ in range(count):
            self.sent.append(sim.now)
            yield from self.out(0).put(Packet(b"\xA5" * payload))
            yield sim.timeout(1_000_000)  # 1 ms spacing: no queueing effects


class Sink(SSDLet):
    """Receives packets, recording arrival times."""

    IN_TYPES = (Packet,)

    def run(self) -> Generator:
        self.times: List[int] = []
        sim = self._runtime.sim
        while True:
            try:
                yield from self.in_(0).get()
            except PortClosed:
                return
            self.times.append(sim.now)


PROBE_MODULE.register("idSource", Source)
PROBE_MODULE.register("idSink", Sink)
