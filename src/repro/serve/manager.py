"""The JobManager: multi-tenant request serving over one or more SSDs.

Submission is synchronous bookkeeping (no fiber): ``submit`` applies the
per-tenant queue-depth limit (the backpressure signal), enqueues into the
scheduler, and immediately tries to dispatch.  Dispatch pops jobs as long
as the scheduler's head can be admitted on some device — one SSDlet slot
plus a DRAM reservation per job (:mod:`repro.serve.admission`) — placing
each job round-robin or least-loaded across devices
(:mod:`repro.net.cluster`).  Every completion frees its slot and re-enters
dispatch, so the pipeline is driven entirely by submit/finish edges: no
polling, fully deterministic.

Module lifecycle follows the paper: a job kind's SSDlet module is loaded on
first use, shared (refcounted) by concurrent jobs of that kind, and
unloaded when the last one drains — the dynamic load/unload path of
Section IV-B exercised continuously rather than once per program.

Queue timeouts are enforced lazily: a job whose ``timeout_us`` elapsed
while queued is retired (counted, ``done`` triggered) at its dispatch turn,
never occupying a device slot.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.ssd_api import SSD
from repro.net.cluster import make_placement
from repro.serve.admission import AdmissionDecision, SlotTable
from repro.serve.jobs import JOB_KINDS, Job, JobSpec, JobState
from repro.serve.scheduler import make_scheduler
from repro.serve.slo import SLOTracker
from repro.sim.engine import Event
from repro.sim.units import us_to_ns

__all__ = ["DeviceServer", "JobManager", "Tenant"]


class Tenant:
    """Per-tenant serving contract (fair-share weight, queue limit)."""

    def __init__(self, name: str, weight: float = 1.0, queue_limit: int = 16):
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.name = name
        self.weight = weight
        self.queue_limit = queue_limit


class DeviceServer:
    """One device's serving state: SSD handle + slots + resident modules.

    Every job on this device runs through the handle's runtime and channel
    manager, which are the device's own (one per SSD), so module residency,
    slot occupancy and the data-channel pool are those of the device.
    """

    def __init__(self, system, index: int):
        self.system = system
        self.index = index
        self.ssd = SSD(system, device_index=index)
        self.config = system.devices[index].config
        self.slots = SlotTable(self.config)
        # kind name -> {"mid": Optional[int], "refs": int, "loading": Event}
        self._modules: Dict[str, dict] = {}

    @property
    def load(self) -> Tuple[int, int]:
        """Orderable pressure key: (busy slots, in-flight I/O commands)."""
        controller = self.system.devices[self.index].controller
        return (self.slots.slots_in_use, controller.inflight_commands)

    # ------------------------------------------------------ module residency
    def acquire_module(self, kind_name: str) -> Generator:
        """Fiber: load the kind's module on first use; returns the mid."""
        kind = JOB_KINDS[kind_name]
        entry = self._modules.get(kind_name)
        if entry is None:
            entry = {"mid": None, "refs": 1,
                     "loading": Event(self.system.sim)}
            self._modules[kind_name] = entry
            try:
                mid = yield from self.ssd.load(kind.module)
            except BaseException as exc:
                # The load itself reads the device, so it can die under
                # fault injection.  Drop the entry (a later arrival reloads
                # cleanly) and propagate the failure to every sharer parked
                # on the loading event — otherwise they wait forever.
                if self._modules.get(kind_name) is entry:
                    del self._modules[kind_name]
                entry["loading"].defused = True  # sharers may be absent
                entry["loading"].fail(exc)
                raise
            entry["mid"] = mid
            entry["loading"].succeed(mid)
            return mid
        entry["refs"] += 1
        if entry["mid"] is None:
            # A concurrent job of the same kind is mid-load; share its copy.
            mid = yield entry["loading"]
            return mid
        return entry["mid"]

    def release_module(self, kind_name: str) -> Generator:
        """Fiber: drop one reference; unload when the last job drains."""
        entry = self._modules[kind_name]
        entry["refs"] -= 1
        if entry["refs"] == 0:
            # Remove the entry first so a new arrival reloads cleanly even
            # while this unload's control call is in flight.
            del self._modules[kind_name]
            yield from self.ssd.unloadModule(entry["mid"])

    @property
    def resident_modules(self) -> Tuple[str, ...]:
        return tuple(sorted(self._modules))


class JobManager:
    """Accepts typed NDP jobs from many tenants and serves them."""

    def __init__(self, system, tenants: List[Tenant],
                 scheduler: str = "fifo", placement: str = "round_robin"):
        self.system = system
        self.sim = system.sim
        self.tenants: Dict[str, Tenant] = {}
        for tenant in tenants:
            if tenant.name in self.tenants:
                raise ValueError("duplicate tenant %r" % tenant.name)
            self.tenants[tenant.name] = tenant
        self.servers = [DeviceServer(system, index)
                        for index in range(system.num_ssds)]
        self.scheduler = make_scheduler(
            scheduler, {t.name: t.weight for t in tenants})
        self.placement = make_placement(placement)
        self.tracker = SLOTracker(
            system.metrics, [t.name for t in tenants], len(self.servers),
            sim=self.sim)
        self._queued_per_tenant = {t.name: 0 for t in tenants}
        self._active_jobs = 0
        self._drain_waiters: List[Event] = []
        self._dispatch_depth = 0
        self.jobs_submitted = 0

    # ------------------------------------------------------------ submission
    def _job_scope(self, job: Job):
        """The job's causal context ("serve/<tenant>/j<id>"); no-op untraced."""
        return self.sim.scope(
            "serve/%s/j%d" % (job.spec.tenant, job.job_id), job.spec.tenant)

    def submit(self, spec: JobSpec) -> Tuple[AdmissionDecision, Job]:
        """Accept or reject one request; never blocks.

        The returned :class:`AdmissionDecision` is the tenant's
        backpressure signal; the returned :class:`Job` carries a ``done``
        event that triggers when the job leaves the system (for closed-loop
        tenants).
        """
        job = Job(spec, self.sim, submit_ns=self.sim.now)
        self.jobs_submitted += 1
        with self._job_scope(job):
            tenant = self.tenants.get(spec.tenant)
            if tenant is None:
                return self._reject(job, "unknown_tenant"), job
            if spec.kind not in JOB_KINDS:
                return self._reject(job, "unknown_kind"), job
            if self._queued_per_tenant[spec.tenant] >= tenant.queue_limit:
                return self._reject(job, "queue_full"), job
            self.tracker.submitted(job)
            self._queued_per_tenant[spec.tenant] += 1
            self.scheduler.push(job)
        self._try_dispatch()
        return AdmissionDecision(True), job

    def _reject(self, job: Job, reason: str) -> AdmissionDecision:
        job.state = JobState.REJECTED
        job.reject_reason = reason
        job.finish_ns = self.sim.now
        self.tracker.submitted(job)
        self.tracker.rejected(job, reason)
        job.done.succeed(job)
        return AdmissionDecision(False, reason)

    # -------------------------------------------------------------- dispatch
    def _eligible_servers(self, job: Job) -> List[Tuple[int, Tuple[int, int]]]:
        return [(server.index, server.load) for server in self.servers
                if server.slots.can_admit(job)]

    def _try_dispatch(self) -> None:
        # submit/finish edges can re-enter while we are already draining the
        # queue below; the outermost call's loop will pick the work up.
        if self._dispatch_depth:
            return
        self._dispatch_depth = 1
        try:
            while True:
                head = self.scheduler.peek()
                if head is None:
                    break
                if self._queue_expired(head):
                    self.scheduler.pop()
                    self._retire_queued(head, JobState.TIMED_OUT)
                    continue
                candidates = self._eligible_servers(head)
                if not candidates:
                    if self._active_jobs == 0:
                        # Nothing running will ever free a slot: this job
                        # can never be admitted (e.g. DRAM ask exceeds the
                        # device budget).  Reject instead of deadlocking.
                        self.scheduler.pop()
                        self._retire_queued(head, JobState.REJECTED,
                                            reason="unsatisfiable")
                    break
                job = self.scheduler.pop()
                index = self.placement.pick(candidates)
                self._queued_per_tenant[job.spec.tenant] -= 1
                server = self.servers[index]
                server.slots.admit(job)
                self._active_jobs += 1
                job.device_index = index
                job.state = JobState.RUNNING
                job.start_ns = self.sim.now
                # Dispatch runs re-entrant from whatever fiber freed the
                # slot; the job's own scope keeps the admit-wait span and
                # the spawned runner (which inherits the active context at
                # creation) attributed to *this* job, not the finishing one.
                with self._job_scope(job):
                    self.tracker.dispatched(job)
                    runner = self.sim.process(
                        self._run_job(job, server),
                        name="serve:%s/%s#%d" % (job.spec.tenant,
                                                 job.spec.kind, job.job_id))
                runner.defused = True
        finally:
            self._dispatch_depth = 0
        self._notify_if_drained()

    def _queue_expired(self, job: Job) -> bool:
        if job.spec.timeout_us is None:
            return False
        return self.sim.now - job.submit_ns > us_to_ns(job.spec.timeout_us)

    def _retire_queued(self, job: Job, state: str,
                       reason: Optional[str] = None) -> None:
        job.state = state
        job.finish_ns = self.sim.now
        self._queued_per_tenant[job.spec.tenant] -= 1
        with self._job_scope(job):
            if state == JobState.TIMED_OUT:
                self.tracker.timed_out(job)
            else:
                job.reject_reason = reason
                self.tracker.rejected(job, reason or "")
        job.done.succeed(job)

    def _run_job(self, job: Job, server: DeviceServer) -> Generator:
        try:
            mid = yield from server.acquire_module(job.spec.kind)
            try:
                kind = JOB_KINDS[job.spec.kind]
                job.result = yield from kind.run(server, mid, job)
                job.state = JobState.DONE
            finally:
                yield from server.release_module(job.spec.kind)
        except Exception as exc:
            # Typed device errors (ECC exhaustion, safety violations...)
            # fail the one job, never the serving loop.
            job.state = JobState.FAILED
            job.error = exc
        finally:
            job.finish_ns = self.sim.now
            self.tracker.finished(job)
            server.slots.release(job)
            self._active_jobs -= 1
            job.done.succeed(job)
            self._try_dispatch()

    # ----------------------------------------------------------------- drain
    @property
    def idle(self) -> bool:
        return self._active_jobs == 0 and len(self.scheduler) == 0

    def _notify_if_drained(self) -> None:
        if self.idle and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def drain(self) -> Generator:
        """Fiber: block until the queue is empty and no job is running."""
        while not self.idle:
            waiter = Event(self.sim)
            self._drain_waiters.append(waiter)
            yield waiter

    def finalize(self, elapsed_s: float) -> None:
        """Record end-of-run occupancy peaks and goodput gauges."""
        for server in self.servers:
            self.tracker.record_occupancy(server.index, server.slots)
        self.tracker.finalize(sorted(self.tenants), elapsed_s)
