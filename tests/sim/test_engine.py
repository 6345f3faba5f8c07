"""Simulation kernel: events, timeouts, fibers, conditions, clock."""

import pytest

from repro.sim.engine import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.now_s == 0.0
    assert sim.now_us == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.run(sim.timeout(1500))
    assert sim.now == 1500


def test_timeout_value():
    sim = Simulator()
    assert sim.run(sim.timeout(10, value="done")) == "done"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeouts_fire_in_order():
    sim = Simulator()
    order = []
    for delay in (300, 100, 200):
        sim.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [100, 200, 300]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.timeout(50).add_callback(lambda e, t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event()
    event.succeed(41)
    sim.run()
    assert event.processed and event.ok
    assert event.value == 41


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("x"))


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_pending_event_value_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_unhandled_failure_surfaces():
    sim = Simulator()
    sim.event().fail(ValueError("boom"))
    with pytest.raises(SimulationError):
        sim.run()


def test_defused_failure_is_silent():
    sim = Simulator()
    event = sim.event()
    event.defused = True
    event.fail(ValueError("boom"))
    sim.run()
    assert not event.ok


def test_process_receives_timeout_values():
    sim = Simulator()
    seen = []

    def fiber():
        value = yield sim.timeout(10, "a")
        seen.append(value)
        value = yield sim.timeout(10, "b")
        seen.append(value)

    sim.run(sim.process(fiber()))
    assert seen == ["a", "b"]
    assert sim.now == 20


def test_process_return_value():
    sim = Simulator()

    def fiber():
        yield sim.timeout(5)
        return 99

    assert sim.run(sim.process(fiber())) == 99


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def failing():
        yield sim.timeout(1)
        raise RuntimeError("inner")

    def waiter():
        try:
            yield sim.process(failing())
        except RuntimeError as exc:
            return str(exc)

    assert sim.run(sim.process(waiter())) == "inner"


def test_process_failed_event_thrown_in():
    sim = Simulator()
    event = sim.event()

    def fiber():
        try:
            yield event
        except ValueError:
            return "caught"

    proc = sim.process(fiber())
    event.fail(ValueError("x"))
    assert sim.run(proc) == "caught"


def test_process_must_yield_events():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    proc.defused = True
    sim.run()
    assert isinstance(proc.exception, SimulationError)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_interrupt_wakes_waiting_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(1_000_000)
        except Interrupt as interrupt:
            return interrupt.cause

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(10)
        proc.interrupt("wake up")

    sim.process(interrupter())
    assert sim.run(proc) == "wake up"
    assert sim.now < 1_000_000


def test_interrupt_before_first_resume_cancels():
    sim = Simulator()
    ran = []

    def body():
        ran.append("entered")
        yield sim.timeout(100)
        ran.append("finished")

    proc = sim.process(body())
    proc.interrupt("cancel")  # before the simulator ever ran
    sim.run()
    assert ran == []  # the body never executed
    assert proc.processed and not proc.ok
    assert isinstance(proc.exception, Interrupt)


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run(proc)
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_stale_wakeup_after_interrupt_ignored():
    sim = Simulator()
    stages = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt:
            stages.append("interrupted")
        yield sim.timeout(500)
        stages.append("done")

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(10)
        proc.interrupt()

    sim.process(interrupter())
    sim.run(proc)
    # The original timeout at t=100 must not resume the fiber early.
    assert stages == ["interrupted", "done"]
    assert sim.now == 510


def test_all_of_collects_values():
    sim = Simulator()
    events = [sim.timeout(i * 10, value=i) for i in (3, 1, 2)]
    assert sim.run(all_of(sim, events)) == [3, 1, 2]


def test_all_of_with_already_processed_children():
    sim = Simulator()

    def quick(i):
        yield sim.timeout(i)
        return i

    procs = [sim.process(quick(i)) for i in (1, 2)]
    sim.run()  # both finish

    def waiter():
        values = yield all_of(sim, procs)
        return values

    assert sim.run(sim.process(waiter())) == [1, 2]


def test_all_of_empty():
    sim = Simulator()
    assert sim.run(all_of(sim, [])) == []


def test_empty_composites_cannot_hang_a_fiber():
    """``all_of([])`` is vacuously done; ``any_of([])`` could never trigger,
    so it is refused at construction instead of hanging whoever yields it."""
    sim = Simulator()

    def waiter():
        values = yield all_of(sim, iter(()))
        return values, sim.now

    assert sim.run(sim.process(waiter())) == ([], 0)
    for empty in ([], (), iter(())):
        with pytest.raises(ValueError, match="at least one event"):
            any_of(sim, empty)
    sim.run()  # the refused composites left nothing behind
    assert sim.peek() is None


def test_all_of_fails_fast():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(1000)

    def waiter():
        try:
            yield all_of(sim, [bad, slow])
        except KeyError:
            return sim.now

    proc = sim.process(waiter())
    bad.fail(KeyError("k"))
    assert sim.run(proc) == 0


def test_any_of_first_wins():
    sim = Simulator()
    first = any_of(sim, [sim.timeout(50, "slow"), sim.timeout(5, "fast")])
    assert sim.run(first) == "fast"
    assert sim.now == 5


def test_any_of_preprocessed_child():
    sim = Simulator()
    done = sim.event()
    done.succeed("already")
    sim.run()
    result = any_of(sim, [done, sim.timeout(100)])
    assert sim.run(result) == "already"


def test_condition_rejects_foreign_events():
    sim_a, sim_b = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        all_of(sim_a, [sim_b.timeout(1)])


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.timeout(100).add_callback(lambda e: fired.append(100))
    sim.timeout(300).add_callback(lambda e: fired.append(300))
    sim.run(until=200)
    assert fired == [100]
    assert sim.now == 200
    sim.run()
    assert fired == [100, 300]


def test_run_until_past_rejected():
    sim = Simulator()
    sim.run(sim.timeout(100))
    with pytest.raises(ValueError):
        sim.run(until=50)


def test_run_until_untriggered_event_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(sim.event())


def test_peek():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(42)
    assert sim.peek() == 42


def test_nested_yield_from():
    sim = Simulator()

    def inner():
        yield sim.timeout(10)
        return "inner-value"

    def outer():
        value = yield from inner()
        yield sim.timeout(5)
        return value + "!"

    assert sim.run(sim.process(outer())) == "inner-value!"
    assert sim.now == 15


def test_many_processes_interleave():
    sim = Simulator()
    log = []

    def worker(name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((name, sim.now))

    sim.process(worker("a", 10))
    sim.process(worker("b", 15))
    sim.run()
    # At t=30 both fire; b's timeout was scheduled first (at t=15), so it
    # wakes first — FIFO among same-time events.
    assert log == [("a", 10), ("b", 15), ("a", 20), ("b", 30), ("a", 30), ("b", 45)]
