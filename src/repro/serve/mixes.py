"""Named traffic mixes and the deterministic mix runner.

A *mix* is a reproducible serving scenario: a system shape (device count),
a sim-time horizon, and a list of tenant profiles.  ``run_mix`` builds the
world, drives it to drain, and returns the manager — the CLI, the
saturation-sweep bench and the smoke tests all run the very same code path.

``load_scale`` multiplies every open-loop tenant's arrival rate; sweeping
it is how the bench walks offered load up through the latency knee.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.host.platform import System
from repro.instrument.events import traced_simulator
from repro.serve.jobs import install_serve_datasets
from repro.serve.loadgen import LoadGenerator, TenantProfile
from repro.serve.manager import JobManager

__all__ = ["MIXES", "MixResult", "mix_names", "run_mix"]


class MixResult:
    """Everything a caller may want to inspect after a run."""

    def __init__(self, system: System, manager: JobManager,
                 loadgen: LoadGenerator, elapsed_s: float, bus=None):
        self.system = system
        self.manager = manager
        self.loadgen = loadgen
        self.elapsed_s = elapsed_s
        #: The EventBus when the run was traced (run_mix(trace=True)).
        self.bus = bus


def _smoke() -> Tuple[int, float, List[TenantProfile]]:
    """Every job kind, light load, one device: the CI determinism gate."""
    profiles = [
        TenantProfile("ana", "string_search", mode="open",
                      rate_jobs_per_s=120.0, queue_limit=12,
                      slo_us=20_000.0),
        TenantProfile("bob", "pointer_chase", mode="closed", workers=2,
                      think_time_us=400.0, queue_limit=8, slo_us=30_000.0),
        TenantProfile("cyn", "db_scan", mode="open", rate_jobs_per_s=60.0,
                      queue_limit=8, timeout_us=50_000.0, slo_us=40_000.0),
    ]
    return 1, 0.05, profiles


def _multi_device() -> Tuple[int, float, List[TenantProfile]]:
    """Two devices; placement spreads tenants' jobs across both."""
    profiles = [
        TenantProfile("ana", "string_search", mode="open",
                      rate_jobs_per_s=200.0, queue_limit=16),
        TenantProfile("bob", "pointer_chase", mode="open",
                      rate_jobs_per_s=150.0, queue_limit=16),
    ]
    return 2, 0.05, profiles


def _overload() -> Tuple[int, float, List[TenantProfile]]:
    """Arrivals far beyond one device's capacity: rejections + timeouts."""
    profiles = [
        TenantProfile("ana", "string_search", mode="open",
                      rate_jobs_per_s=3_000.0, queue_limit=12,
                      timeout_us=60_000.0, slo_us=20_000.0),
        TenantProfile("bob", "db_scan", mode="open",
                      rate_jobs_per_s=1_500.0, queue_limit=8,
                      slo_us=40_000.0),
    ]
    return 1, 0.05, profiles


def _saturation() -> Tuple[int, float, List[TenantProfile]]:
    """One open-loop tenant whose rate the bench sweeps through the knee."""
    profiles = [
        TenantProfile("ana", "string_search", mode="open",
                      rate_jobs_per_s=400.0, queue_limit=24,
                      slo_us=20_000.0),
    ]
    return 1, 0.05, profiles


def _fairness() -> Tuple[int, float, List[TenantProfile]]:
    """A heavy tenant saturating the device next to a light one.

    Under FIFO the light tenant queues behind the flood; WFQ's per-tenant
    virtual clocks let its occasional jobs overtake, holding its p99 near
    the isolated-run value (the Section V-B isolation story).
    """
    profiles = [
        TenantProfile("heavy", "string_search", mode="open",
                      rate_jobs_per_s=4_000.0, queue_limit=32, weight=1.0),
        TenantProfile("light", "pointer_chase", mode="closed", workers=1,
                      think_time_us=2_000.0, queue_limit=4, weight=4.0,
                      params={"hops": 8}),
    ]
    return 1, 0.05, profiles


def _fairness_light_only() -> Tuple[int, float, List[TenantProfile]]:
    """The fairness mix's light tenant alone: its isolated baseline."""
    _devices, horizon_s, profiles = _fairness()
    return 1, horizon_s, [p for p in profiles if p.name == "light"]


MIXES: Dict[str, Callable[[], Tuple[int, float, List[TenantProfile]]]] = {
    "smoke": _smoke,
    "multi_device": _multi_device,
    "overload": _overload,
    "saturation": _saturation,
    "fairness": _fairness,
    "fairness_light_only": _fairness_light_only,
}


def mix_names() -> List[str]:
    return sorted(MIXES)


def run_mix(mix: str, policy: str = "fifo", placement: str = "round_robin",
            seed: int = 11, load_scale: float = 1.0,
            horizon_s: Optional[float] = None, trace: bool = False) -> MixResult:
    """Build and run one mix to drain; fully deterministic per arguments.

    ``trace=True`` attaches an :class:`~repro.instrument.events.EventBus`
    before the system wires up (``result.bus``); timing is unchanged — the
    bus is pure observation (the fused fast path de-gates itself).
    """
    if mix not in MIXES:
        raise ValueError("unknown mix %r (one of %s)"
                         % (mix, ", ".join(mix_names())))
    if load_scale <= 0:
        raise ValueError("load_scale must be positive")
    num_ssds, mix_horizon_s, profiles = MIXES[mix]()
    if horizon_s is None:
        horizon_s = mix_horizon_s
    for profile in profiles:
        if profile.mode == "open":
            profile.rate_jobs_per_s *= load_scale
    sim, bus = traced_simulator(trace)
    system = System(num_ssds=num_ssds, sim=sim)
    install_serve_datasets(system)
    manager = JobManager(
        system, [profile.tenant() for profile in profiles],
        scheduler=policy, placement=placement)
    loadgen = LoadGenerator(manager, profiles, seed=seed,
                            horizon_s=horizon_s)
    system.run_fiber(loadgen.run(), name="loadgen")
    elapsed_s = system.sim.now_s
    manager.finalize(elapsed_s)
    return MixResult(system, manager, loadgen, elapsed_s, bus=bus)
