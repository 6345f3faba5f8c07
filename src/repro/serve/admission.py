"""Admission control: device-side SSDlet slots and DRAM budgets.

Each device exposes a fixed number of concurrently-resident application
slots (``SSDConfig.serve_app_slots`` — the paper's runtime multiplexes all
applications over two cores, so concurrency has to be bounded before the
cores thrash) and a DRAM reservation budget
(``SSDConfig.serve_dram_budget_bytes``, a slice of the user arena).  A job
occupies one slot plus its declared ``dram_bytes`` from dispatch to
completion; the serving layer refuses to dispatch — and the load generator
sees backpressure — once either budget is exhausted.
"""

from __future__ import annotations

from repro.serve.jobs import Job
from repro.ssd.config import SSDConfig

__all__ = ["AdmissionDecision", "SlotTable"]


class AdmissionDecision:
    """Outcome of a submit: the tenant's backpressure signal."""

    __slots__ = ("accepted", "reason")

    def __init__(self, accepted: bool, reason: str = ""):
        self.accepted = accepted
        self.reason = reason

    def __bool__(self) -> bool:
        return self.accepted

    def __repr__(self) -> str:
        return "AdmissionDecision(%s%s)" % (
            "accepted" if self.accepted else "rejected",
            ", %s" % self.reason if self.reason else "")


class SlotTable:
    """Per-device slot + DRAM occupancy ledger."""

    def __init__(self, config: SSDConfig):
        self.app_slots = config.serve_app_slots
        self.dram_budget_bytes = config.serve_dram_budget_bytes
        self.slots_in_use = 0
        self.dram_reserved_bytes = 0
        self.peak_slots_in_use = 0
        self.peak_dram_reserved_bytes = 0

    def can_admit(self, job: Job) -> bool:
        return (
            self.slots_in_use < self.app_slots
            and self.dram_reserved_bytes + job.spec.dram_bytes
            <= self.dram_budget_bytes
        )

    def admit(self, job: Job) -> None:
        if not self.can_admit(job):
            raise RuntimeError("admitting past the device budget")
        self.slots_in_use += 1
        self.dram_reserved_bytes += job.spec.dram_bytes
        self.peak_slots_in_use = max(self.peak_slots_in_use,
                                     self.slots_in_use)
        self.peak_dram_reserved_bytes = max(self.peak_dram_reserved_bytes,
                                            self.dram_reserved_bytes)

    def release(self, job: Job) -> None:
        self.slots_in_use -= 1
        self.dram_reserved_bytes -= job.spec.dram_bytes
        if self.slots_in_use < 0 or self.dram_reserved_bytes < 0:
            raise RuntimeError("slot table released more than it admitted")
