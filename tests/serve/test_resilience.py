"""Serving-layer resilience: retry, failover, recovery-window shedding."""

import pytest

from repro.host.platform import System
from repro.serve.admission import ResilienceConfig
from repro.serve.jobs import JobSpec, JobState, install_serve_datasets
from repro.serve.manager import JobManager, Tenant
from repro.testing.faults import Fault, ScriptedInjector


def make_manager(num_ssds=2, resilience=None, tenants=None):
    system = System(num_ssds=num_ssds)
    install_serve_datasets(system)
    tenants = tenants or [Tenant("a")]
    manager = JobManager(system, tenants, resilience=resilience)
    return system, manager


def spec(slo_us=None, **kwargs):
    return JobSpec(tenant="a", kind="string_search", slo_us=slo_us, **kwargs)


def run_to_drain(system, manager):
    system.run_fiber(manager.drain(), name="drain")


# ------------------------------------------------------------------- config
def test_resilience_config_validation():
    with pytest.raises(ValueError):
        ResilienceConfig(max_attempts=0)
    with pytest.raises(ValueError):
        ResilienceConfig(shed_threshold=0.0)
    with pytest.raises(ValueError):
        ResilienceConfig(shed_threshold=1.5)


def test_should_shed_spares_slo_bound_work():
    config = ResilienceConfig()
    # Quiet fleet: nothing sheds.
    assert not config.should_shed(spec(), 0, 2)
    # Whole fleet recovering: best-effort sheds, SLO-bound does not.
    assert config.should_shed(spec(), 2, 2)
    assert not config.should_shed(spec(slo_us=2000.0), 2, 2)
    # Below the threshold fraction nothing sheds either.
    assert not config.should_shed(spec(), 1, 2)
    # And shedding can be disabled outright.
    off = ResilienceConfig(shed_best_effort=False)
    assert not off.should_shed(spec(), 2, 2)


# ----------------------------------------------------------------- shedding
def test_best_effort_submissions_shed_while_fleet_recovers():
    system, manager = make_manager(resilience=ResilienceConfig())
    for index in range(system.num_ssds):
        manager.recovery.note_fault(index)
    decision, job = manager.submit(spec())
    assert not decision and decision.reason == "shed_recovery"
    assert job.state == JobState.REJECTED
    assert job.done.triggered
    # The same submission with an SLO rides through.
    decision, job = manager.submit(spec(slo_us=50_000.0))
    assert decision.accepted
    run_to_drain(system, manager)
    assert job.state == JobState.DONE
    shed = system.metrics.counter("serve.tenant.a.shed").value
    assert shed == 1


def test_shedding_stops_once_the_window_expires():
    system, manager = make_manager(
        resilience=ResilienceConfig(recovery_window_us=100.0))
    for index in range(system.num_ssds):
        manager.recovery.note_fault(index)
    system.sim.run(system.sim.timeout(1_000_000))  # outlive the window
    decision, job = manager.submit(spec())
    assert decision.accepted
    run_to_drain(system, manager)
    assert job.state == JobState.DONE


def test_without_resilience_nothing_sheds():
    system, manager = make_manager(resilience=None)
    assert manager.recovery is None
    decision, job = manager.submit(spec())
    assert decision.accepted
    run_to_drain(system, manager)
    assert job.state == JobState.DONE


# ---------------------------------------------------------- placement steer
def test_placement_avoids_recovering_devices():
    system, manager = make_manager(resilience=ResilienceConfig())
    manager.recovery.note_fault(0)
    jobs = [manager.submit(spec())[1] for _ in range(2)]
    run_to_drain(system, manager)
    assert all(job.state == JobState.DONE for job in jobs)
    # Device 0 is mid-recovery; everything landed on device 1.
    assert all(job.device_index == 1 for job in jobs)


# ------------------------------------------------------------ retry/failover
def test_device_fault_retries_and_fails_over():
    system, manager = make_manager(resilience=ResilienceConfig(max_attempts=3))
    # Device 0 fails every read it sees for a while: the first attempt
    # (module load included) dies with a typed device error.
    script = {ordinal: Fault("uncorrectable") for ordinal in range(400)}
    system.devices[0].attach_fault_injector(ScriptedInjector(script))
    decision, job = manager.submit(spec())
    assert decision.accepted
    assert job.device_index == 0  # round robin starts at the faulty device
    run_to_drain(system, manager)
    assert job.state == JobState.DONE
    assert job.device_index == 1  # the retry moved off the dead device
    registry = system.metrics
    assert registry.counter("serve.tenant.a.retries").value >= 1
    assert registry.counter("serve.tenant.a.failovers").value >= 1
    assert registry.counter("serve.device0.faults").value >= 1
    assert registry.counter("serve.device1.failover_in").value >= 1
    assert manager.recovery.faults_noted >= 1


def test_retry_budget_exhaustion_fails_the_job_not_the_loop():
    system, manager = make_manager(
        num_ssds=1, resilience=ResilienceConfig(max_attempts=2))
    script = {ordinal: Fault("uncorrectable") for ordinal in range(4000)}
    system.devices[0].attach_fault_injector(ScriptedInjector(script))
    failed, follow = manager.submit(spec())[1], None
    run_to_drain(system, manager)
    assert failed.state == JobState.FAILED
    assert failed.error is not None
    # The serving loop survived: once the device heals (script drained,
    # recovery window over) a later job still completes.
    system.devices[0].attach_fault_injector(ScriptedInjector({}))
    system.sim.run(system.sim.timeout(100_000_000))  # outlive the window
    follow = manager.submit(spec())[1]
    run_to_drain(system, manager)
    assert follow.state == JobState.DONE


def test_without_resilience_device_errors_fail_fast():
    system, manager = make_manager(num_ssds=1, resilience=None)
    script = {ordinal: Fault("uncorrectable") for ordinal in range(400)}
    system.devices[0].attach_fault_injector(ScriptedInjector(script))
    job = manager.submit(spec())[1]
    run_to_drain(system, manager)
    assert job.state == JobState.FAILED
    assert system.metrics.counter("serve.tenant.a.retries").value == 0


def test_failed_db_scan_gives_its_data_channel_back():
    # The db_scan kind runs on repro.db.ndp.run_offloaded_scan; a device
    # error under it must not strand the scan's data channel (same probe as
    # test_hedged_kv_batches_give_their_data_channels_back).
    from repro.core.errors import DeviceError

    system, manager = make_manager(num_ssds=1)

    def run_one():
        job = manager.submit(JobSpec(tenant="a", kind="db_scan"))[1]
        run_to_drain(system, manager)
        return job

    probe = ScriptedInjector({})
    system.devices[0].attach_fault_injector(probe)
    assert run_one().state == JobState.DONE
    # Every read from the middle of the next job on is uncorrectable.
    middle = probe.reads_seen // 2
    dying = ScriptedInjector({ordinal: Fault("uncorrectable")
                              for ordinal in range(middle, middle + 4000)})
    system.devices[0].attach_fault_injector(dying)
    failed = run_one()
    assert failed.state == JobState.FAILED
    assert isinstance(failed.error, DeviceError) and dying.faults_injected
    assert manager.servers[0].ssd.channels.data_channels._in_use == 0
    system.devices[0].attach_fault_injector(None)
    assert run_one().state == JobState.DONE
