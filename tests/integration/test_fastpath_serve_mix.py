"""Fast path on vs off under a concurrent multi-tenant arrival schedule.

The differential ``fastpath`` arm sweeps one query at a time, and the
``fastshape`` arm runs serve mixes to short horizons.  This runs the
smoke mix for 1.5 simulated seconds both ways at ``LoadGenerator(seed=106)``
— the schedule on which the fused path once ended 10 765 ns late, while it
still fused one-page reads.  A serve mix issues only one-page channel
commands, so nothing fuses and both paths step the same events to the
per-event end time.
"""

import pytest

from repro.host.platform import System
from repro.serve import MIXES, JobManager, LoadGenerator
from repro.serve.jobs import install_serve_datasets
from repro.ssd.config import SSDConfig

OUTCOMES = ("submitted", "completed", "rejected", "timeouts", "failed")


def _serve(fast_path, seed, horizon_s):
    """``run_mix("smoke")`` on a chosen path: (end ns, events, outcomes)."""
    system = System(ssd_config=SSDConfig(sim_fast_path=fast_path))
    install_serve_datasets(system)
    _devices, _horizon_s, profiles = MIXES["smoke"]()
    manager = JobManager(system, [p.tenant() for p in profiles],
                         scheduler="fifo", placement="round_robin")
    loadgen = LoadGenerator(manager, profiles, seed=seed, horizon_s=horizon_s)
    system.run_fiber(loadgen.run(), name="loadgen")
    manager.finalize(system.sim.now_s)
    outcomes = {
        (p.name, name): system.metrics.counter(
            "serve.tenant.%s.%s" % (p.name, name)).value
        for p in profiles for name in OUTCOMES}
    outcomes["offered"] = loadgen.jobs_offered
    return system.sim.now, system.sim.events_processed, outcomes


@pytest.fixture(scope="module")
def seed_106_mix():
    return _serve(True, 106, 1.5), _serve(False, 106, 1.5)


def test_seed_106_mix_ends_at_the_per_event_time_on_both_paths(seed_106_mix):
    (fast_ns, fast_events, _), (slow_ns, slow_events, _) = seed_106_mix
    assert fast_ns == slow_ns == 1_503_828_282
    assert fast_events == slow_events == 138_905


def test_seed_106_mix_outcomes_agree(seed_106_mix):
    (_, _, fast_outcomes), (_, _, slow_outcomes) = seed_106_mix
    assert fast_outcomes == slow_outcomes
    assert fast_outcomes["offered"] == 791
