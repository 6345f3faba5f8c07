"""Recovery windows: which devices recently faulted and deserve slack.

A device that just threw a media error or crashed is usually mid-recovery
(read retries, remap, reboot); re-saturating it immediately both slows its
recovery and queues new requests behind the backlog.  The tracker records
the last fault time per device; a device is *recovering* for
``window_us`` after its last fault.  The resilient scan driver consults
this to pick a retry device that is not itself recovering.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.units import us_to_ns

__all__ = ["RecoveryTracker"]


class RecoveryTracker:
    """Per-device fault recency, driven by the simulation clock."""

    #: The counter attributes a driver publishes with ``registry.attach``.
    FIELDS = ("faults_noted",)

    def __init__(self, sim, window_us: float = 5000.0):
        if window_us < 0:
            raise ValueError("recovery window cannot be negative")
        self.sim = sim
        self.window_ns = us_to_ns(window_us)
        self._last_fault_ns: Dict[int, int] = {}
        self.faults_noted = 0

    def note_fault(self, device_index: int) -> None:
        """A device-level fault was observed on ``device_index`` just now."""
        self._last_fault_ns[device_index] = self.sim.now
        self.faults_noted += 1

    def in_recovery(self, device_index: int) -> bool:
        last = self._last_fault_ns.get(device_index)
        if last is None:
            return False
        return self.sim.now - last < self.window_ns

    def counters(self) -> dict:
        return {"faults_noted": self.faults_noted}
