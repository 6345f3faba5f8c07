"""SLO accounting for the serving layer.

Every number lands in the system-wide
:class:`~repro.instrument.metrics.MetricsRegistry` under deterministic
dotted names, so one ``registry.to_json()`` snapshot — the bench sidecar
format — carries the full per-tenant latency/goodput picture:

* ``serve.tenant.<name>.queue_us`` / ``.service_us`` / ``.total_us`` —
  latency histograms (order-statistic p50/p90/p95/p99 in the snapshot).
* ``serve.tenant.<name>.submitted|completed|rejected|timeouts|failed|slo_miss``
  — outcome counters.
* ``serve.tenant.<name>.goodput_jps`` — completed-within-SLO jobs per
  second of simulated time (set by :meth:`SLOTracker.finalize`).
* ``serve.device<i>.dispatched`` / ``.peak_slots`` / ``.peak_dram_bytes`` —
  per-device placement and occupancy.

When tracing is attached (``sim.trace``), job lifecycle edges are also
emitted as ``serve``-category instant events on a per-tenant track.
"""

from __future__ import annotations

from typing import List

from repro.instrument.metrics import MetricsRegistry
from repro.serve.jobs import Job, JobState
from repro.sim.units import ns_to_us

__all__ = ["SLOTracker"]


class SLOTracker:
    """Wires job lifecycle edges into metrics + trace events."""

    def __init__(self, registry: MetricsRegistry, tenants: List[str],
                 num_devices: int, sim=None):
        self.registry = registry
        self.sim = sim
        # Create every metric eagerly so snapshots always carry the full,
        # stable key set (byte-determinism of the exported JSON).
        for tenant in sorted(tenants):
            prefix = "serve.tenant.%s" % tenant
            for hist in ("queue_us", "service_us", "total_us"):
                registry.histogram("%s.%s" % (prefix, hist))
            for counter in ("submitted", "completed", "rejected", "timeouts",
                            "failed", "slo_miss"):
                registry.counter("%s.%s" % (prefix, counter))
            registry.gauge("%s.goodput_jps" % prefix)
        for index in range(num_devices):
            prefix = "serve.device%d" % index
            registry.counter("%s.dispatched" % prefix)
            registry.gauge("%s.peak_slots" % prefix)
            registry.gauge("%s.peak_dram_bytes" % prefix)

    # ------------------------------------------------------------- lifecycle
    def _trace(self, name: str, job: Job, **args) -> None:
        trace = self.sim.trace if self.sim is not None else None
        if trace is not None:
            trace.instant("serve", name, "serve/%s" % job.spec.tenant,
                          job=job.job_id, kind=job.spec.kind, **args)

    def _tenant(self, job: Job, metric: str):
        return self.registry.counter(
            "serve.tenant.%s.%s" % (job.spec.tenant, metric))

    def submitted(self, job: Job) -> None:
        self._tenant(job, "submitted").inc()
        self._trace("submit", job)

    def rejected(self, job: Job, reason: str) -> None:
        self._tenant(job, "rejected").inc()
        self._trace("reject", job, reason=reason)

    def timed_out(self, job: Job) -> None:
        self._tenant(job, "timeouts").inc()
        waited_us = ns_to_us(job.finish_ns - job.submit_ns)
        self.registry.histogram(
            "serve.tenant.%s.queue_us" % job.spec.tenant).observe(waited_us)
        self._trace("timeout", job)

    def dispatched(self, job: Job) -> None:
        queue_us = ns_to_us(job.start_ns - job.submit_ns)
        self.registry.histogram(
            "serve.tenant.%s.queue_us" % job.spec.tenant).observe(queue_us)
        self.registry.counter(
            "serve.device%d.dispatched" % job.device_index).inc()
        trace = self.sim.trace if self.sim is not None else None
        if trace is not None and job.start_ns > job.submit_ns:
            # Admission wait: the span the scheduler held this job queued.
            trace.complete("serve", "admit-wait", "serve/%s" % job.spec.tenant,
                           job.submit_ns, job=job.job_id)
        self._trace("dispatch", job, device=job.device_index)

    def finished(self, job: Job) -> None:
        """A dispatched job left the device (completed or failed)."""
        prefix = "serve.tenant.%s" % job.spec.tenant
        service_us = ns_to_us(job.finish_ns - job.start_ns)
        total_us = ns_to_us(job.finish_ns - job.submit_ns)
        self.registry.histogram("%s.service_us" % prefix).observe(service_us)
        self.registry.histogram("%s.total_us" % prefix).observe(total_us)
        if job.state == JobState.FAILED:
            self._tenant(job, "failed").inc()
            self._trace("fail", job)
            return
        self._tenant(job, "completed").inc()
        if job.spec.slo_us is not None and total_us > job.spec.slo_us:
            self._tenant(job, "slo_miss").inc()
        self._trace("complete", job, total_us=total_us)

    # --------------------------------------------------------------- reports
    def record_occupancy(self, index: int, slot_table) -> None:
        self.registry.gauge("serve.device%d.peak_slots" % index).set(
            slot_table.peak_slots_in_use)
        self.registry.gauge("serve.device%d.peak_dram_bytes" % index).set(
            slot_table.peak_dram_reserved_bytes)

    def finalize(self, tenants: List[str], elapsed_s: float) -> None:
        """Set per-tenant goodput gauges for the run that just ended."""
        for tenant in sorted(tenants):
            prefix = "serve.tenant.%s" % tenant
            completed = self.registry.counter("%s.completed" % prefix).value
            misses = self.registry.counter("%s.slo_miss" % prefix).value
            good = completed - misses
            rate = (good / elapsed_s) if elapsed_s > 0 else 0.0
            self.registry.gauge("%s.goodput_jps" % prefix).set(rate)
