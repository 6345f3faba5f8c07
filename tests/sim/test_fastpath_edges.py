"""Fast-path composition edges: faults, interrupts and writes mid-fusion.

Each scenario runs the same stimulus twice — fused plans on a clean channel
with an interferer landing *inside* the fused window, versus the pure
per-event protocol — and requires identical final time, identical channel
counters, and a channel left with every die/bus unit available.  This is
the satellite guard for PR6's resilience machinery: storms, retries and
``Process.interrupt`` must compose with fusion without a nanosecond of
drift.
"""

import pytest

from repro.bench.experiments import _bandwidth
from repro.core.errors import DeviceCrashedError, EccError, UncorrectableReadError
from repro.host.platform import System
from repro.sim.engine import Interrupt, Simulator, all_of
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice
from repro.ssd.nand import Channel
from repro.testing.differential import _fastshape_run
from repro.testing.faults import Fault

BATCH = (16384,) * 6

# Mid-window instants: during the first senses (nothing finished yet) and
# after a couple of transfers (part of the plan already retired).
MID_POINTS = (100_000, 200_000)


def _arm(fast: bool, interfere, mid_ns: int):
    """Run BATCH plus ``interfere(channel)`` at ``mid_ns``; return stats."""
    config = SSDConfig()
    sim = Simulator()
    channel = Channel(sim, config, 0)
    outcome = {}

    def dispatcher():
        if fast:
            fused = channel.try_fuse_reads(BATCH)
            assert fused is not None
            yield fused
        else:
            ops = [sim.process(channel.read(size), name="op%d" % i)
                   for i, size in enumerate(BATCH)]
            yield all_of(sim, ops)
        outcome["batch_done_ns"] = sim.now

    def interferer():
        yield sim.timeout(mid_ns)
        result = yield from interfere(channel)
        outcome["interferer"] = result
        outcome["interferer_done_ns"] = sim.now

    outcome["dispatcher"] = sim.process(dispatcher(), name="dispatcher")
    sim.process(interferer(), name="interferer")
    sim.run()
    outcome["now"] = sim.now
    outcome["bytes_read"] = channel.bytes_read
    outcome["reads"] = channel.reads
    outcome["programs"] = channel.programs
    outcome["erases"] = channel.erases
    outcome["dies_available"] = channel.dies.available
    outcome["bus_available"] = channel.bus.available
    outcome["fastpath"] = channel.fastpath.counters()
    return outcome


def _assert_arms_equal(fast, slow):
    for key in ("now", "batch_done_ns", "interferer", "interferer_done_ns",
                "bytes_read", "reads", "programs", "erases"):
        assert fast.get(key) == slow.get(key), key
    # No leaked holds in either arm: the channel is fully idle again.
    for arm in (fast, slow):
        assert arm["dies_available"] == SSDConfig().dies_per_channel
        assert arm["bus_available"] == 1


@pytest.mark.parametrize("mid_ns", MID_POINTS)
@pytest.mark.parametrize("kind,extra_ns,error", [
    ("ecc", 0, EccError),
    ("uncorrectable", 0, UncorrectableReadError),
    ("spike", 400_000, None),
    ("stall", 800_000, None),
])
def test_faulted_read_in_fused_window(kind, extra_ns, error, mid_ns):
    """A faulted per-event read arriving mid-plan de-fuses the channel and
    then times out/falls over exactly as it would have with no fusion."""
    def interfere(channel):
        try:
            yield from channel.read(16384, physical_page=7,
                                    fault=Fault(kind, extra_ns))
        except (EccError, UncorrectableReadError) as exc:
            return type(exc).__name__
        return "ok"

    fast = _arm(True, interfere, mid_ns)
    slow = _arm(False, interfere, mid_ns)
    _assert_arms_equal(fast, slow)
    assert fast["interferer"] == (error.__name__ if error else "ok")
    assert fast["fastpath"]["materializations"] == 1
    assert slow["fastpath"]["fused_batches"] == 0


@pytest.mark.parametrize("mid_ns", MID_POINTS)
def test_crash_in_fused_window_leaves_plans_exact(mid_ns):
    """A crash outcome fails fast without touching the channel, so the
    fused plans are NOT materialized — and still settle bit-identically."""
    def interfere(channel):
        try:
            yield from channel.read(16384, fault=Fault("crash"))
        except DeviceCrashedError:
            return "crashed"
        return "ok"

    fast = _arm(True, interfere, mid_ns)
    slow = _arm(False, interfere, mid_ns)
    _assert_arms_equal(fast, slow)
    assert fast["interferer"] == "crashed"
    assert fast["fastpath"]["materializations"] == 0
    assert fast["fastpath"]["fused_batches"] == 1


@pytest.mark.parametrize("mid_ns", MID_POINTS)
def test_program_and_erase_in_fused_window(mid_ns):
    """GC-shaped traffic (program + erase) de-fuses and then queues for
    the dies exactly as on the per-event path."""
    def interfere(channel):
        yield from channel.program(16384)
        yield from channel.erase()
        return "ok"

    fast = _arm(True, interfere, mid_ns)
    slow = _arm(False, interfere, mid_ns)
    _assert_arms_equal(fast, slow)
    assert fast["programs"] == 1 and fast["erases"] == 1
    assert fast["fastpath"]["materializations"] == 1


@pytest.mark.parametrize("mid_ns", MID_POINTS)
def test_interrupted_waiter_does_not_leak_the_plan(mid_ns):
    """Interrupting the fiber awaiting a fused batch must not leak dies,
    bus units, or byte accounting — the plan settles on its own, exactly
    like per-event ops whose all_of waiter was interrupted."""
    def _arm_interrupt(fast):
        config = SSDConfig()
        sim = Simulator()
        channel = Channel(sim, config, 0)
        outcome = {}

        def dispatcher():
            if fast:
                target = channel.try_fuse_reads(BATCH)
                assert target is not None
            else:
                ops = [sim.process(channel.read(size), name="op%d" % i)
                       for i, size in enumerate(BATCH)]
                target = all_of(sim, ops)
            try:
                yield target
            except Interrupt:
                return "interrupted"
            return "done"

        def canceller(proc):
            yield sim.timeout(mid_ns)
            proc.interrupt("hedge lost")

        proc = sim.process(dispatcher(), name="dispatcher")
        sim.process(canceller(proc), name="canceller")
        sim.run()
        return sim, channel, proc

    fast_sim, fast_ch, fast_proc = _arm_interrupt(True)
    slow_sim, slow_ch, slow_proc = _arm_interrupt(False)
    assert fast_proc.value == slow_proc.value == "interrupted"
    # The media work itself is not cancelled in either arm: it retires at
    # the same instant with the same accounting.
    assert fast_sim.now == slow_sim.now
    assert fast_ch.bytes_read == slow_ch.bytes_read == sum(BATCH)
    assert fast_ch.reads == slow_ch.reads == len(BATCH)
    for channel in (fast_ch, slow_ch):
        assert channel.dies.available == channel.dies.capacity
        assert channel.bus.available == 1


def test_cache_enabled_configs_never_fuse():
    """With the device read cache on, reads stay per-event (hits must not
    consume injector draws or skip cache bookkeeping) — and both fast-path
    settings produce identical timing."""
    def run(fast):
        config = SSDConfig(read_cache_bytes=64 * 16384, sim_fast_path=fast)
        sim = Simulator()
        device = SSDDevice(sim, config)
        def driver():
            yield from device.controller.read_pages(range(512))
            yield from device.controller.read_pages(range(512))  # warm pass
        sim.process(driver(), name="driver")
        sim.run()
        return sim, device

    fast_sim, fast_dev = run(True)
    slow_sim, slow_dev = run(False)
    assert fast_dev.controller.stats.fused_commands == 0
    assert fast_sim.now == slow_sim.now
    assert fast_dev.nand.bytes_read == slow_dev.nand.bytes_read
    assert fast_dev.cache.stats.hits == slow_dev.cache.stats.hits
    assert fast_dev.cache.stats.hits > 0  # the warm pass really hit


def test_fusion_engages_on_clean_controller_reads():
    config = SSDConfig()
    sim = Simulator()
    device = SSDDevice(sim, config)
    sim.process(device.controller.read_pages(range(2048)), name="driver")
    sim.run()
    assert device.controller.stats.fused_commands > 0
    assert device.controller.stats.fused_stripes > 0


# --------------------------------------------- Fig. 7 shapes, both paths
# 33 internal 4 KiB reads at QD 12 through Fig. 7's bandwidth loop: the
# smallest schedule on which the fused path once ended 405 ns late, while
# it still fused one-page reads.  They run per-event on both paths now.
def _fig7(fast_path, request_bytes, total_bytes, queue_depth, mode):
    system = System(ssd_config=SSDConfig(sim_fast_path=fast_path))
    system.fs.install_synthetic("/bw.dat", 512 << 20)
    _bandwidth(system, "/bw.dat", request_bytes, total_bytes, queue_depth,
               mode)
    return system.sim.now, system.sim.events_processed


def test_qd12_one_page_reads_end_at_the_per_event_time():
    args = (4096, 33 * 4096, 12, "biscuit")
    assert _fig7(True, *args) == _fig7(False, *args) == (313_870, 263)


@pytest.mark.parametrize("request_bytes, total_bytes, queue_depth, mode, end_ns", [
    (1 << 20, 8 << 20, 4, "biscuit", 1_978_896),
    (4 << 20, 32 << 20, 32, "biscuit", 30_690_936),
    (1 << 20, 8 << 20, 12, "conv", 4_287_272),
])
def test_paths_agree_on_multi_stripe_fig7_shapes(
        request_bytes, total_bytes, queue_depth, mode, end_ns):
    args = (request_bytes, total_bytes, queue_depth, mode)
    fast_ns, fast_events = _fig7(True, *args)
    slow_ns, slow_events = _fig7(False, *args)
    assert fast_ns == slow_ns == end_ns
    assert fast_events < slow_events  # and fusion really engaged


# ----------------------------------------- de-fusion and same-instant ties
# A one-page read that lands on a channel with a fused plan in flight
# de-fuses it: the remnant fibers' events are scheduled then, not where the
# per-event path scheduled the ops' own, so an instant shared with another
# channel's events can dispatch the two channels in the other order.  When
# two reads on two de-fused channels finish at such an instant, they reach
# the controller's cores in swapped order.  Here four QD-1 one-page readers
# run beside 1 MiB host reads at QD 2: two of their reads complete 500 ns
# apart, in swapped order on the two paths (the end time agrees).  ROADMAP
# item 1 owns the fix; both paths are pinned exactly so neither can drift
# unseen while the disagreement stands.
DEFUSED_TIE = {"kind": "fig7", "request_bytes": 1 << 20, "queue_depth": 2,
               "mode": "conv", "requests": 24, "point_readers": 4}


@pytest.fixture(scope="module")
def defused_tie():
    return (_fastshape_run(DEFUSED_TIE, True),
            _fastshape_run(DEFUSED_TIE, False))


def test_defused_tie_both_paths_are_pinned(defused_tie):
    fast, slow = defused_tie
    assert (fast["now"], fast["events"]) == (8_219_024, 5_798)
    assert (slow["now"], slow["events"]) == (8_219_024, 11_948)
    assert fast["materializations"] > 0
    swapped = [index for index, (a, b) in enumerate(
        zip(fast["completions"], slow["completions"])) if a != b]
    assert swapped == [42, 115]
    assert [fast["completions"][i] for i in swapped] == [3_381_138, 3_381_638]
    assert [slow["completions"][i] for i in swapped] == [3_381_638, 3_381_138]
