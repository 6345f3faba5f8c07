"""Unit tests for the fused NAND timing fast path (repro.sim.fastpath).

Every test pits the analytic schedule against the per-event protocol on
the same Channel stimulus and requires *exact* equality — the fast path's
contract is bit-identical timestamps, not approximation.
"""

from collections import deque

import pytest

from repro.sim.engine import Simulator, all_of
from repro.sim.fastpath import FusedTimingCalculator
from repro.sim.units import TransferTimes, transfer_ns, us_to_ns
from repro.ssd.config import SSDConfig
from repro.ssd.nand import Channel

SIZES = (16384, 16384, 4096, 16384, 8192, 16384, 16384, 12288, 16384, 2048)


def _config() -> SSDConfig:
    return SSDConfig()


def _slow_run(config, arrivals):
    """Per-event arm: ``arrivals`` is [(time_ns, [sizes])]; ops spawn in
    list order at each arrival time.  Returns per-op completions + stats."""
    sim = Simulator()
    channel = Channel(sim, config, 0)
    completions = {}

    def op(key, size):
        yield from channel.read(size)
        completions[key] = sim.now

    def feeder():
        clock = 0
        for at_ns, sizes in arrivals:
            if at_ns > clock:
                yield sim.timeout(at_ns - clock)
                clock = at_ns
            for i, size in enumerate(sizes):
                sim.process(op((at_ns, i), size), name="op")

    sim.process(feeder(), name="feeder")
    sim.run()
    return completions, sim, channel


class _RecordingCalculator(FusedTimingCalculator):
    """Keeps every plan's (base ns, relative schedule)."""

    def __init__(self, channel):
        super().__init__(channel._sense_ns, channel._bus_ns)
        self.plans = []

    def schedule(self, now, *args):
        out = super().schedule(now, *args)
        self.plans.append((now, out[0]))
        return out


def _fast_run(config, arrivals):
    """Fused arm for the same stimulus: one dispatcher fiber per arrival
    fuses its batch and awaits the plan.  Per-op completions are read off
    the recorded schedules."""
    sim = Simulator(race_check=False)
    channel = Channel(sim, config, 0)
    calculator = channel.fastpath.calculator = _RecordingCalculator(channel)

    def dispatcher(at_ns, sizes):
        yield sim.timeout(at_ns)
        fused = channel.try_fuse_reads(tuple(sizes))
        assert fused is not None
        base, rel_times = calculator.plans[-1]
        yield fused
        # The dispatcher resumes at the plan's last completion.
        assert sim.now == base + rel_times[-1][3]

    for at_ns, sizes in arrivals:
        sim.process(dispatcher(at_ns, sizes), name="dispatcher")
    sim.run()
    completions = {(base, i): base + times[3]
                   for base, rel_times in calculator.plans
                   for i, times in enumerate(rel_times)}
    return completions, sim, channel


def test_fused_schedule_matches_per_event_protocol():
    config = _config()
    arrivals = [(0, list(SIZES))]
    slow_done, slow_sim, slow_ch = _slow_run(config, arrivals)
    fast_done, fast_sim, fast_ch = _fast_run(config, arrivals)
    assert fast_done == slow_done  # every op, bit-identical completion
    assert fast_sim.now == slow_sim.now
    assert fast_ch.bytes_read == slow_ch.bytes_read == sum(SIZES)
    assert fast_ch.reads == slow_ch.reads == len(SIZES)
    # The point of fusing: the whole batch retires in a handful of events.
    assert fast_sim.events_processed < slow_sim.events_processed / 4


def test_chained_batches_match_staggered_arrivals():
    """A batch arriving while fused plans are in flight chains onto the
    analytic queue state — exactly the per-event FIFO it stands in for."""
    config = _config()
    first = [16384] * 6
    second = [16384, 8192, 16384]
    mid_ns = us_to_ns(config.nand_read_us) + 5_000  # inside the first plan
    arrivals = [(0, first), (mid_ns, second)]
    slow_done, slow_sim, slow_ch = _slow_run(config, arrivals)
    fast_done, fast_sim, fast_ch = _fast_run(config, arrivals)
    assert fast_done == slow_done
    assert fast_sim.now == slow_sim.now
    assert fast_ch.bytes_read == slow_ch.bytes_read
    assert fast_ch.fastpath.fused_batches == 2


def test_utilization_identical_after_settle():
    config = _config()
    arrivals = [(0, list(SIZES))]
    _done, slow_sim, slow_ch = _slow_run(config, arrivals)
    _done, fast_sim, fast_ch = _fast_run(config, arrivals)
    assert fast_sim.now == slow_sim.now
    assert fast_ch.dies.busy_area() == slow_ch.dies.busy_area()
    assert fast_ch.bus.busy_area() == slow_ch.bus.busy_area()
    assert fast_ch.dies.utilization() == slow_ch.dies.utilization()


def test_busy_area_mid_plan_matches_per_event_protocol():
    """A plan in flight books its die and bus time only when it settles,
    yet busy_area() read at any instant inside it (as the power meter and
    the utilization monitor do) equals the per-event path's."""
    config = _config()
    sense = us_to_ns(config.nand_read_us)
    probes = [1, sense - 1, sense, sense + 7_000, 2 * sense + 12_345,
              3 * sense, 10 * sense]

    def run(fast):
        sim = Simulator(race_check=False)
        channel = Channel(sim, config, 0)
        samples = []

        def sampler():
            clock = 0
            for at_ns in probes:
                yield sim.timeout(at_ns - clock)
                clock = at_ns
                samples.append((channel.dies.busy_area(),
                                channel.bus.busy_area()))

        def reader():
            if fast:
                fused = channel.try_fuse_reads(SIZES)
                assert fused is not None
                yield fused
            else:
                yield all_of(sim, [sim.process(channel.read(size))
                                   for size in SIZES])

        sim.process(sampler(), name="sampler")
        sim.process(reader(), name="reader")
        sim.run()
        return samples

    fast, slow = run(True), run(False)
    assert fast == slow
    assert 0 < fast[1][0] < fast[-1][0]  # sampled mid-plan, not only after


def test_calculator_cache_is_offset_invariant():
    """Same relative queue state at a different absolute time is a cache
    hit and yields the same relative schedule."""
    calc = FusedTimingCalculator(52_600, TransferTimes(275e6))
    sizes = (16384, 8192, 16384)
    die_a = deque([0, 0])
    rel_a, bus_a, dies_area_a, bus_area_a = calc.schedule(
        0, die_a, 0, sizes)
    die_b = deque([7_000, 7_000])
    rel_b, bus_b, dies_area_b, bus_area_b = calc.schedule(
        7_000, die_b, 7_000, sizes)
    assert calc.cache_misses == 1
    assert calc.cache_hits == 1
    assert rel_a == rel_b
    assert dies_area_a == dies_area_b
    assert bus_area_a == bus_area_b
    assert bus_b - bus_a == 7_000
    assert [t - 7_000 for t in die_b] == list(die_a)
    # The analytic schedule itself: serialized transfers, senses overlapped.
    sense = 52_600
    expected_bus_busy = sum(transfer_ns(s, 275e6) for s in sizes)
    assert bus_area_a == expected_bus_busy
    assert rel_a[0][0] == 0 and rel_a[0][1] == sense


def test_no_fusion_while_channel_has_real_traffic():
    config = _config()
    sim = Simulator()
    channel = Channel(sim, config, 0)
    outcome = {}

    def slow_op():
        yield from channel.read(16384)

    def prober():
        yield sim.timeout(1_000)  # the slow op is mid-sense
        outcome["fused"] = channel.try_fuse_reads((16384, 16384))

    sim.process(slow_op(), name="slow")
    sim.process(prober(), name="probe")
    sim.run()
    assert outcome["fused"] is None
    assert channel.fastpath.fused_batches == 0


def test_no_fusion_under_tracing():
    config = _config()
    sim = Simulator()
    channel = Channel(sim, config, 0)
    sim.trace = object()  # any active trace sink disables fusion
    assert channel.try_fuse_reads((16384,)) is None


def test_counters_shape():
    config = _config()
    _done, _sim, channel = _fast_run(config, [(0, [16384, 16384])])
    counters = channel.fastpath.counters()
    assert counters["fused_batches"] == 1
    assert counters["fused_pages"] == 2
    assert counters["materializations"] == 0
    assert counters["timing_cache_misses"] >= 1


def test_transfer_size_still_validated():
    config = _config()
    sim = Simulator()
    channel = Channel(sim, config, 0)
    with pytest.raises(ValueError):
        channel.try_fuse_reads((config.physical_page_bytes + 1,))
    with pytest.raises(ValueError):
        channel.try_fuse_reads((0,))


# ------------------------------------------------------------ run vs step
# Simulator.run continues fibers in line (Simulator.advance, Resource.take)
# and Simulator.step never does; a fused plan on an idle channel keeps its
# timer under both, so the two drains dispatch the same entries.
def _idle_probe(drain):
    """One dispatcher fuses SIZES on an idle channel at t=1 under
    ``drain(sim)``; returns (done_ns, sim, channel)."""
    sim = Simulator(race_check=False)
    channel = Channel(sim, _config(), 0)
    record = {}

    def dispatcher():
        yield sim.timeout(1)
        fused = channel.try_fuse_reads(SIZES)
        assert fused is not None
        yield fused
        record["done_ns"] = sim.now

    sim.process(dispatcher(), name="dispatcher")
    drain(sim)
    return record["done_ns"], sim, channel


def _stepped(sim):
    while sim.peek() is not None:
        sim.step()


def _accounting(channel):
    return (channel.dies.busy_area(), channel.bus.busy_area(),
            channel.bytes_read, channel.reads, channel.fastpath.counters())


def test_idle_channel_plan_runs_like_a_stepped_twin():
    run_ns, run_sim, run_ch = _idle_probe(lambda sim: sim.run())
    step_ns, step_sim, step_ch = _idle_probe(_stepped)
    assert run_ns == step_ns == run_sim.now == step_sim.now
    assert _accounting(run_ch) == _accounting(step_ch)
    assert run_ch.fastpath.fused_batches == 1
    assert not run_ch.fastpath.active
    assert run_sim.events_processed == step_sim.events_processed
