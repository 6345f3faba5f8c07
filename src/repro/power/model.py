"""Wall-power model over the simulated activity timeline.

The paper measures whole-system power with the SSD attached (Fig. 9):
idle ≈ 103 W; during Query 1 Conv averages 122 W (host CPUs busy, SSD
partially busy) and Biscuit averages 136 W (SSD channels saturated).

Model: instantaneous power = idle + (busy host cores × per-core watts)
+ (SSD channel-bus utilization × full-device NAND watts) + (device-core
utilization × device-core watts) + (PCIe utilization × link watts).  The
meter samples resource busy-integrals at a fixed simulated interval, so the
series is exact for the model (no sampling noise).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.host.platform import System
from repro.sim.engine import Interrupt, Process
from repro.sim.units import s_to_ns

__all__ = ["PowerMeter"]

# Calibrated to Fig. 9 (idle 103 W; Conv 122 W; Biscuit 136 W).
IDLE_W = 103.0
HOST_CORE_W = 17.0  # per busy host core
SSD_NAND_W = 42.0  # all channels streaming
DEVICE_CORE_W = 6.0  # per busy device core
PCIE_W = 3.0  # link at full utilization


class PowerMeter:
    """Samples system power on a fixed simulated-time grid."""

    def __init__(self, system: System, interval_s: float = 0.25):
        self.system = system
        self.interval_ns = s_to_ns(interval_s)
        self.series: List[Tuple[float, float]] = []  # (time_s, watts)
        self._fiber: Optional[Process] = None
        self._last = self._snapshot()
        self._last_t = system.sim.now

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        if self._fiber is not None:
            return
        self._last = self._snapshot()
        self._last_t = self.system.sim.now
        self._fiber = self.system.sim.process(self._sampler(), name="power-meter")
        self._fiber.defused = True

    def stop(self) -> None:
        if self._fiber is None:
            return
        if self._fiber.is_alive:
            self._take_sample()  # close the final partial interval
            self._fiber.interrupt("meter stop")
        self._fiber = None

    def _sampler(self) -> Generator:
        try:
            while True:
                yield self.system.sim.timeout(self.interval_ns)
                self._take_sample()
        except Interrupt:
            return

    # --------------------------------------------------------------- sampling
    def _snapshot(self) -> Tuple[int, int, int, int]:
        device = self.system.device
        nand_busy = sum(ch.bus.busy_area() for ch in device.nand.channels)
        return (
            self.system.cpu.cores.busy_area(),
            nand_busy,
            device.cores.busy_area(),
            device.interface.link.busy_area(),
        )

    def _take_sample(self) -> None:
        now = self.system.sim.now
        dt = now - self._last_t
        if dt <= 0:
            return
        current = self._snapshot()
        host_d, nand_d, core_d, pcie_d = (
            current[i] - self._last[i] for i in range(4)
        )
        device = self.system.device
        watts = (
            IDLE_W
            + HOST_CORE_W * (host_d / dt)
            + SSD_NAND_W * (nand_d / (dt * len(device.nand.channels)))
            + DEVICE_CORE_W * (core_d / dt)
            + PCIE_W * (pcie_d / dt)
        )
        self.series.append((now / 1e9, watts))
        self._last = current
        self._last_t = now

    # ------------------------------------------------------------------ query
    def average_w(self, t0_s: float = 0.0, t1_s: Optional[float] = None) -> float:
        """Mean power over [t0, t1] (defaults to the whole recording)."""
        points = [
            (t, w) for t, w in self.series
            if t >= t0_s and (t1_s is None or t <= t1_s)
        ]
        if not points:
            return IDLE_W
        return sum(w for _, w in points) / len(points)

    def energy_kj(self) -> float:
        """Energy in kJ over the whole series: Σ watts × interval."""
        total = 0.0
        prev_t = 0.0
        for t, w in self.series:
            total += w * (t - prev_t)
            prev_t = t
        return total / 1e3
