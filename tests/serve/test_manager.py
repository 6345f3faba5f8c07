"""JobManager: admission, dispatch, module residency, timeouts, placement."""

import pytest

from repro.core.errors import DeviceError
from repro.host.platform import System
from repro.serve.admission import SlotTable
from repro.serve.jobs import (
    DEFAULT_JOB_DRAM_BYTES,
    JobSpec,
    JobState,
    install_serve_datasets,
)
from repro.serve.manager import JobManager, Tenant
from repro.ssd.config import SSDConfig
from repro.testing.faults import Fault, ScriptedInjector


def make_manager(num_ssds=1, tenants=None, config=None, **kwargs):
    system = System(num_ssds=num_ssds, ssd_config=config)
    install_serve_datasets(system)
    tenants = tenants or [Tenant("a"), Tenant("b")]
    return system, JobManager(system, tenants, **kwargs)


def spec(tenant="a", kind="string_search", **kwargs):
    return JobSpec(tenant=tenant, kind=kind, **kwargs)


def run_to_drain(system, manager):
    system.run_fiber(manager.drain(), name="drain")


# ------------------------------------------------------------------ admission
def test_unknown_tenant_rejected():
    _, manager = make_manager()
    decision, job = manager.submit(spec(tenant="nobody"))
    assert not decision and decision.reason == "unknown_tenant"
    assert job.state == JobState.REJECTED
    assert job.done.triggered


def test_unknown_kind_rejected():
    _, manager = make_manager()
    decision, job = manager.submit(spec(kind="mine_bitcoin"))
    assert not decision and decision.reason == "unknown_kind"


def test_queue_limit_backpressure():
    system, manager = make_manager(
        tenants=[Tenant("a", queue_limit=2)])
    # Slots are free, so the first submits dispatch immediately; saturate
    # the device first so later submits actually queue.
    accepted = []
    rejected = 0
    for _ in range(12):
        decision, _job = manager.submit(spec())
        if decision:
            accepted.append(_job)
        else:
            assert decision.reason == "queue_full"
            rejected += 1
    assert rejected > 0
    run_to_drain(system, manager)
    assert all(job.state == JobState.DONE for job in accepted)


def test_duplicate_tenant_rejected_at_build():
    system = System()
    with pytest.raises(ValueError):
        JobManager(system, [Tenant("a"), Tenant("a")])


def test_tenant_validation():
    with pytest.raises(ValueError):
        Tenant("a", weight=0)
    with pytest.raises(ValueError):
        Tenant("a", queue_limit=0)


def test_unsatisfiable_dram_ask_rejected_not_deadlocked():
    system, manager = make_manager()
    budget = system.config.serve_dram_budget_bytes
    decision, job = manager.submit(spec(dram_bytes=budget + 1))
    assert decision.accepted  # queue admission passes...
    run_to_drain(system, manager)  # ...but dispatch can never place it
    assert job.state == JobState.REJECTED
    assert job.reject_reason == "unsatisfiable"


# ----------------------------------------------------------------- slot table
def test_slot_table_budgets():
    config = SSDConfig(serve_app_slots=2,
                       serve_dram_budget_bytes=DEFAULT_JOB_DRAM_BYTES)
    table = SlotTable(config)
    job1 = type("J", (), {"spec": spec()})()
    assert table.can_admit(job1)
    table.admit(job1)
    assert table.slots_in_use == 1
    # Second job fits a slot but not the DRAM budget.
    job2 = type("J", (), {"spec": spec()})()
    assert not table.can_admit(job2)
    table.release(job1)
    assert table.can_admit(job2)
    assert table.peak_slots_in_use == 1
    assert table.peak_dram_reserved_bytes == DEFAULT_JOB_DRAM_BYTES


def test_slot_table_guards_double_release():
    table = SlotTable(SSDConfig())
    job = type("J", (), {"spec": spec()})()
    table.admit(job)
    table.release(job)
    with pytest.raises(RuntimeError):
        table.release(job)


def test_slots_cap_concurrency():
    config = SSDConfig(serve_app_slots=2)
    system, manager = make_manager(config=config)
    for _ in range(8):
        manager.submit(spec())
    run_to_drain(system, manager)
    server = manager.servers[0]
    assert server.slots.peak_slots_in_use <= 2
    assert server.slots.slots_in_use == 0
    assert server.slots.dram_reserved_bytes == 0


# ------------------------------------------------------------ module lifecycle
def test_modules_shared_then_unloaded():
    system, manager = make_manager()
    for _ in range(4):
        manager.submit(spec(kind="string_search"))
    manager.submit(spec(kind="pointer_chase"))
    run_to_drain(system, manager)
    server = manager.servers[0]
    # Everything drained: no module stays resident, none leaks in the runtime.
    assert server.resident_modules == ()
    assert server.ssd.runtime.loaded_modules == ()


def test_all_job_kinds_produce_results():
    system, manager = make_manager(
        tenants=[Tenant("a", queue_limit=16)])
    jobs = []
    for kind in ("string_search", "pointer_chase", "db_scan"):
        _, job = manager.submit(spec(kind=kind))
        jobs.append(job)
    run_to_drain(system, manager)
    for job in jobs:
        assert job.state == JobState.DONE
        assert job.result is not None
    # string_search counts matches; db_scan counts rows -- both are ints.
    assert all(isinstance(job.result, int) for job in jobs)


def test_failed_job_does_not_kill_serving(monkeypatch):
    system, manager = make_manager()
    from repro.serve.jobs import JOB_KINDS

    def boom(server, mid, job):
        raise RuntimeError("injected fault")
        yield  # pragma: no cover - makes this a generator function

    monkeypatch.setattr(JOB_KINDS["pointer_chase"], "run", boom)
    _, bad = manager.submit(spec(kind="pointer_chase"))
    _, good = manager.submit(spec(kind="string_search"))
    run_to_drain(system, manager)
    assert bad.state == JobState.FAILED
    assert bad.error is not None
    assert good.state == JobState.DONE
    server = manager.servers[0]
    assert server.slots.slots_in_use == 0
    assert server.ssd.runtime.loaded_modules == ()


def test_device_errors_fail_the_job_fast():
    system, manager = make_manager()
    script = {ordinal: Fault("uncorrectable") for ordinal in range(400)}
    system.devices[0].attach_fault_injector(ScriptedInjector(script))
    job = manager.submit(spec())[1]
    run_to_drain(system, manager)
    assert job.state == JobState.FAILED


def test_failed_db_scan_gives_its_data_channel_back():
    # The db_scan kind runs on repro.db.ndp.run_offloaded_scan; a device
    # error under it must not strand the scan's data channel (same probe as
    # test_hedged_kv_batches_give_their_data_channels_back).
    system, manager = make_manager()

    def run_one():
        job = manager.submit(spec(kind="db_scan"))[1]
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


# -------------------------------------------------------------------- timeout
def test_queue_timeout_retires_stale_jobs():
    config = SSDConfig(serve_app_slots=1)
    system, manager = make_manager(
        config=config, tenants=[Tenant("a", queue_limit=32)])
    jobs = []
    for _ in range(20):
        _, job = manager.submit(spec(timeout_us=1_000.0))
        jobs.append(job)
    run_to_drain(system, manager)
    states = {job.state for job in jobs}
    assert JobState.TIMED_OUT in states  # deep queue at 1 slot: stale tails
    assert JobState.DONE in states  # the head still completed
    timed_out = [job for job in jobs if job.state == JobState.TIMED_OUT]
    assert all(job.start_ns is None for job in timed_out)


# ------------------------------------------------------------------ placement
def test_round_robin_spreads_across_devices():
    system, manager = make_manager(num_ssds=2, placement="round_robin")
    jobs = []
    for _ in range(6):
        _, job = manager.submit(spec())
        jobs.append(job)
    run_to_drain(system, manager)
    devices = sorted({job.device_index for job in jobs})
    assert devices == [0, 1]


def test_least_loaded_prefers_idle_device():
    system, manager = make_manager(num_ssds=2, placement="least_loaded")
    jobs = []
    for _ in range(8):
        _, job = manager.submit(spec())
        jobs.append(job)
    run_to_drain(system, manager)
    assert sorted({job.device_index for job in jobs}) == [0, 1]


def test_drain_on_idle_manager_returns_immediately():
    system, manager = make_manager()
    run_to_drain(system, manager)
    assert manager.idle
