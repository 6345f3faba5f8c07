"""Deterministic open- and closed-loop load generation.

Synthetic tenants submit jobs purely in simulated time from seeded RNG
streams — one :class:`random.Random` per tenant worker, seeded from the run
seed and the tenant's position, never from wall clock or hash order — so a
(mix, seed) pair always produces the identical arrival sequence.

* **open loop** — Poisson-ish arrivals: exponential inter-arrival gaps at
  ``rate_jobs_per_s``, submitted regardless of completions (the offered
  load the saturation sweep turns up until the latency knee appears).
* **closed loop** — ``workers`` concurrent clients, each submitting, then
  blocking on the job's ``done`` event, then thinking for
  ``think_time_us``.  A rejection (backpressure) is absorbed as one think
  time before retrying with the next request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.serve.jobs import JOB_KINDS, JobSpec
from repro.serve.manager import JobManager, Tenant
from repro.sim.engine import all_of
from repro.sim.units import s_to_ns, us_to_ns

__all__ = ["LoadGenerator", "TenantProfile"]


@dataclass
class TenantProfile:
    """One synthetic tenant: identity, contract, and traffic shape."""

    name: str
    kind: str
    mode: str = "open"  # "open" | "closed"
    # Contract (feeds JobManager/Tenant).
    weight: float = 1.0
    queue_limit: int = 16
    # Traffic shape.
    rate_jobs_per_s: float = 100.0  # open loop
    workers: int = 1  # closed loop
    think_time_us: float = 1_000.0  # closed loop
    # Request shape.
    params: Dict[str, Any] = field(default_factory=dict)
    cost: float = 1.0
    timeout_us: Optional[float] = None
    slo_us: Optional[float] = None

    def tenant(self) -> Tenant:
        return Tenant(self.name, weight=self.weight,
                      queue_limit=self.queue_limit)


class LoadGenerator:
    """Drives a JobManager with N tenants until a sim-time horizon."""

    def __init__(self, manager: JobManager, profiles: List[TenantProfile],
                 seed: int = 11, horizon_s: float = 0.1):
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        for profile in profiles:
            if profile.mode not in ("open", "closed"):
                raise ValueError("unknown tenant mode %r" % profile.mode)
            if profile.kind not in JOB_KINDS:
                raise ValueError("unknown job kind %r" % profile.kind)
        self.manager = manager
        self.profiles = list(profiles)
        self.seed = seed
        self.horizon_s = horizon_s
        self.jobs_offered = 0

    # ---------------------------------------------------------------- fibers
    def run(self) -> Generator:
        """Fiber: generate all traffic, then drain the manager."""
        sim = self.manager.sim
        fibers = []
        for index, profile in enumerate(self.profiles):
            if profile.mode == "open":
                rng = self._rng(index, 0)
                fibers.append(sim.process(
                    self._open_loop(profile, rng),
                    name="loadgen:%s" % profile.name))
            else:
                for worker in range(profile.workers):
                    rng = self._rng(index, worker)
                    fibers.append(sim.process(
                        self._closed_loop(profile, rng),
                        name="loadgen:%s/%d" % (profile.name, worker)))
        if fibers:
            yield all_of(sim, fibers)
        yield from self.manager.drain()

    def _rng(self, tenant_index: int, worker: int) -> random.Random:
        return random.Random((self.seed << 16) ^ (tenant_index << 8) ^ worker)

    def _make_spec(self, profile: TenantProfile,
                   rng: random.Random) -> JobSpec:
        kind = JOB_KINDS[profile.kind]
        params = kind.draw_params(rng, profile.params)
        return JobSpec(
            tenant=profile.name, kind=profile.kind, params=params,
            cost=profile.cost, timeout_us=profile.timeout_us,
            slo_us=profile.slo_us,
        )

    def _open_loop(self, profile: TenantProfile,
                   rng: random.Random) -> Generator:
        sim = self.manager.sim
        horizon_ns = s_to_ns(self.horizon_s)
        while True:
            gap_s = rng.expovariate(profile.rate_jobs_per_s)
            delay_ns = max(1, s_to_ns(gap_s))
            if sim.now + delay_ns > horizon_ns:
                return
            yield sim.timeout(delay_ns)
            self.jobs_offered += 1
            self.manager.submit(self._make_spec(profile, rng))

    def _closed_loop(self, profile: TenantProfile,
                     rng: random.Random) -> Generator:
        sim = self.manager.sim
        horizon_ns = s_to_ns(self.horizon_s)
        think_ns = max(1, us_to_ns(profile.think_time_us))
        while sim.now < horizon_ns:
            self.jobs_offered += 1
            decision, job = self.manager.submit(
                self._make_spec(profile, rng))
            if decision.accepted:
                yield job.done
            # Think time doubles as the backoff after a rejection.
            yield sim.timeout(think_ns)
