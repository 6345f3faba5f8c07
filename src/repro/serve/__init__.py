"""repro.serve — multi-tenant SSDlet serving over the simulated stack.

The request-serving layer the ROADMAP's "serving heavy traffic" north star
needs: a :class:`~repro.serve.manager.JobManager` with admission control
and dynamic module lifecycle, pluggable schedulers
(:mod:`repro.serve.scheduler`), deterministic open/closed-loop load
generation (:mod:`repro.serve.loadgen`) and SLO accounting wired into the
system metrics registry (:mod:`repro.serve.slo`).

``python -m repro.serve`` runs a named traffic mix deterministically.
"""

from repro.serve.admission import AdmissionDecision, SlotTable
from repro.serve.jobs import (
    JOB_KINDS,
    Job,
    JobSpec,
    JobState,
    install_serve_datasets,
    job_kind_names,
)
from repro.serve.loadgen import LoadGenerator, TenantProfile
from repro.serve.manager import DeviceServer, JobManager, Tenant
from repro.serve.mixes import MIXES, MixResult, mix_names, run_mix
from repro.serve.scheduler import (
    FIFOScheduler,
    SCHEDULER_POLICIES,
    WFQScheduler,
    make_scheduler,
)
from repro.serve.slo import SLOTracker

__all__ = [
    "AdmissionDecision",
    "DeviceServer",
    "FIFOScheduler",
    "JOB_KINDS",
    "Job",
    "JobManager",
    "JobSpec",
    "JobState",
    "LoadGenerator",
    "MIXES",
    "MixResult",
    "SCHEDULER_POLICIES",
    "SLOTracker",
    "SlotTable",
    "Tenant",
    "TenantProfile",
    "WFQScheduler",
    "install_serve_datasets",
    "job_kind_names",
    "make_scheduler",
    "mix_names",
    "run_mix",
]
