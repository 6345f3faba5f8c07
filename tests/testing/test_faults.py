"""Fault injector: determinism, counters, and controller retry behaviour."""

import pytest

from repro.core.errors import EccError, UncorrectableReadError
from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice
from repro.testing.faults import Fault, FaultInjector, FaultPlan


def make_device(retry_limit=2, backoff_us=10.0, pages=32):
    sim = Simulator()
    config = SSDConfig(
        channels=2, dies_per_channel=2,
        read_retry_limit=retry_limit, read_retry_backoff_us=backoff_us,
    )
    device = SSDDevice(sim, config)
    sim.run(sim.process(device.controller.write_pages(list(range(pages)))))
    return sim, device


def read(sim, device, lpns):
    return sim.run(sim.process(device.internal_read(list(lpns))))


# ------------------------------------------------------------------ the plan
def test_plan_rejects_negative_rates():
    with pytest.raises(ValueError):
        FaultInjector(FaultPlan(ecc_rate=-0.1))


def test_plan_rejects_rates_past_one():
    with pytest.raises(ValueError):
        FaultInjector(FaultPlan(ecc_rate=0.7, spike_rate=0.7))


def test_plan_rejects_negative_delays():
    with pytest.raises(ValueError):
        FaultInjector(FaultPlan(spike_us=-1.0))


def test_any_faults_flag():
    assert not FaultPlan(seed=7).any_faults
    assert FaultPlan(ecc_rate=0.01).any_faults


# ------------------------------------------------------------------ drawing
def test_same_plan_same_draw_sequence():
    plan = FaultPlan(seed=42, ecc_rate=0.2, uncorrectable_rate=0.05,
                     spike_rate=0.1, stall_rate=0.1)
    first = FaultInjector(plan)
    second = FaultInjector(plan)
    draws_a = [first.draw_read(i % 4, i) for i in range(500)]
    draws_b = [second.draw_read(i % 4, i) for i in range(500)]
    assert draws_a == draws_b
    assert first.counters() == second.counters()
    assert first.faults_injected > 0


def test_different_seeds_diverge():
    base = dict(ecc_rate=0.2, spike_rate=0.2, stall_rate=0.2)
    first = FaultInjector(FaultPlan(seed=1, **base))
    second = FaultInjector(FaultPlan(seed=2, **base))
    draws_a = [first.draw_read(0) for _ in range(200)]
    draws_b = [second.draw_read(0) for _ in range(200)]
    assert draws_a != draws_b


def test_channel_filter_skips_other_channels():
    injector = FaultInjector(FaultPlan(seed=3, ecc_rate=1.0, channels=(1,)))
    assert injector.draw_read(0) is None
    assert injector.reads_seen == 0  # filtered channels consume no draws
    assert injector.draw_read(1) == Fault("ecc")
    assert injector.reads_seen == 1


def test_counters_add_up():
    injector = FaultInjector(FaultPlan(
        seed=11, ecc_rate=0.2, uncorrectable_rate=0.1,
        spike_rate=0.2, stall_rate=0.2))
    for index in range(400):
        injector.draw_read(index % 8)
    counts = injector.counters()
    assert counts["reads_seen"] == 400
    assert injector.faults_injected == (
        counts["ecc_injected"] + counts["uncorrectable_injected"]
        + counts["spikes_injected"] + counts["stalls_injected"])
    # At these rates every kind should have fired at least once in 400 draws.
    assert counts["ecc_injected"] > 0
    assert counts["uncorrectable_injected"] > 0
    assert counts["spikes_injected"] > 0
    assert counts["stalls_injected"] > 0


# ------------------------------------------------- end-to-end through reads
def test_persistent_ecc_exhausts_retries_and_is_typed():
    sim, device = make_device(retry_limit=2)
    device.attach_fault_injector(FaultInjector(FaultPlan(seed=5, ecc_rate=1.0)))
    with pytest.raises(UncorrectableReadError) as info:
        read(sim, device, [0])
    assert info.value.channel is not None
    assert info.value.page is not None
    stats = device.controller.stats
    assert stats.read_retries == 3  # initial attempt + 2 retries, all failed
    assert stats.unrecoverable_reads == 1
    assert stats.recovered_reads == 0


def test_direct_uncorrectable_is_never_retried():
    sim, device = make_device(retry_limit=3)
    device.attach_fault_injector(
        FaultInjector(FaultPlan(seed=5, uncorrectable_rate=1.0)))
    with pytest.raises(UncorrectableReadError):
        read(sim, device, [0])
    assert device.controller.stats.read_retries == 0
    assert device.controller.stats.unrecoverable_reads == 1


def test_transient_ecc_recovers_via_retry():
    sim, device = make_device(retry_limit=3)
    device.attach_fault_injector(FaultInjector(FaultPlan(seed=9, ecc_rate=0.3)))
    read(sim, device, range(32))
    stats = device.controller.stats
    assert stats.read_retries > 0
    assert stats.recovered_reads > 0
    assert stats.unrecoverable_reads == 0


def test_retry_backoff_costs_time():
    sim_a, device_a = make_device(backoff_us=0.0)
    device_a.attach_fault_injector(FaultInjector(FaultPlan(seed=9, ecc_rate=0.3)))
    read(sim_a, device_a, range(32))

    sim_b, device_b = make_device(backoff_us=200.0)
    device_b.attach_fault_injector(FaultInjector(FaultPlan(seed=9, ecc_rate=0.3)))
    read(sim_b, device_b, range(32))

    # Same seed → same retry pattern; only the backoff differs.
    assert (device_b.controller.stats.read_retries
            == device_a.controller.stats.read_retries)
    assert sim_b.now > sim_a.now


def test_latency_spike_slows_reads():
    sim_clean, device_clean = make_device()
    read(sim_clean, device_clean, range(32))

    sim_spiky, device_spiky = make_device()
    device_spiky.attach_fault_injector(
        FaultInjector(FaultPlan(seed=1, spike_rate=1.0, spike_us=500.0)))
    read(sim_spiky, device_spiky, range(32))
    assert sim_spiky.now > sim_clean.now


def test_channel_stall_slows_reads():
    sim_clean, device_clean = make_device()
    read(sim_clean, device_clean, range(32))

    sim_stalled, device_stalled = make_device()
    device_stalled.attach_fault_injector(
        FaultInjector(FaultPlan(seed=1, stall_rate=1.0, stall_us=1000.0)))
    read(sim_stalled, device_stalled, range(32))
    assert sim_stalled.now > sim_clean.now


def test_faults_never_corrupt_read_content():
    # Timing faults delay reads but the logical content store is untouched.
    sim, device = make_device()
    device.store_pages([3], b"payload")
    device.attach_fault_injector(FaultInjector(FaultPlan(
        seed=2, ecc_rate=0.2, spike_rate=0.3, stall_rate=0.3)))
    read(sim, device, range(32))
    assert device.load_page(3) == b"payload"


def test_detach_restores_clean_reads():
    sim, device = make_device()
    device.attach_fault_injector(FaultInjector(FaultPlan(seed=5, ecc_rate=1.0)))
    with pytest.raises(UncorrectableReadError):
        read(sim, device, [0])
    device.attach_fault_injector(None)
    read(sim, device, range(32))  # no exception
