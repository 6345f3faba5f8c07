"""Every way of draining the heap is the same simulation.

``Simulator.run`` has one dispatch loop (plus the race monitor's batched
one); ``step()`` is the reference.  Seeded random fiber programs — zero and
positive timeouts, shared ``Resource`` s of one to three units,
``BoundedQueue`` hand-offs, interrupts (of queued waiters, and of waiters
granted in the very timestep they are interrupted in), failing events,
``all_of`` / ``any_of`` — must produce the same log, final clock and busy
integrals however the loop is driven, and an exception raised
mid-timestamp must leave the heap as repeated ``step()`` leaves it.

The programs also hold resources in line (``Resource.take`` and
``Simulator.advance``, falling back to the yields).  ``step()`` and the
monitored drain never continue in line, so they agree on every event and
sequence number; ``run()`` skips the entries it continues past, so it may
process fewer events and draw fewer sequence numbers, but the entries left
queued after a crash keep their times and their order.
"""

import random

import pytest

from repro.sim.engine import (
    Interrupt, SimulationError, Simulator, all_of, any_of,
)
from repro.sim.queues import BoundedQueue
from repro.sim.resources import Resource

DELAYS = (0, 0, 0, 1, 1, 2, 3, 5)
SLICE_NS = 4


class World:
    """One seeded program, built identically on any simulator."""

    def __init__(self, sim, seed, bombs=0):
        rng = random.Random(seed)
        self.sim = sim
        self.log = []
        self.reclaimed = 0  # waiters interrupted after their grant was made
        self.resources = [Resource(sim, capacity=rng.randint(1, 3))
                          for _ in range(3)]
        self.queue = BoundedQueue(sim, capacity=rng.randint(1, 2))
        names = ["f%d" % i for i in range(rng.randint(4, 9))]
        programs = {name: [self._draw_op(rng, names) for _ in range(12)]
                    for name in names}
        #: Waits of the sentinel-driven mode; created in every mode so the
        #: sequence numbers (and the event count) are the same everywhere.
        self.marker = sim.timeout(rng.randint(2, 12), value="marker")
        for index in range(bombs):
            sim.process(self._bomb(rng.randint(1, 15), index % 2 == 0),
                        name="bomb%d" % index)
        self.fibers = {name: sim.process(self._worker(name, ops), name=name)
                       for name, ops in programs.items()}

    def _draw_op(self, rng, names):
        kind = rng.choice(("sleep", "sleep", "hold", "hold", "hold", "inline",
                           "inline", "kick", "qput", "qget",
                           "fail", "child", "all", "any"))
        delay = rng.choice(DELAYS)
        if kind in ("hold", "inline"):
            return kind, rng.choice(self.resources), delay
        if kind == "kick":
            return kind, rng.choice(names)
        if kind in ("all", "any"):
            return kind, [rng.choice(DELAYS) for _ in range(rng.randint(1, 3))]
        return kind, delay

    def _bomb(self, delay, in_callback):
        yield self.sim.timeout(delay)
        if in_callback:  # a callback that raises, then one that never runs
            fuse = self.sim.timeout(0)
            fuse.add_callback(self._explode)
            fuse.add_callback(lambda event: self.log.append("unreachable"))
        else:  # an unhandled failure: the loop itself raises
            self.sim.event().fail(RuntimeError("bomb"))

    def _explode(self, event):
        raise RuntimeError("bomb in a callback")

    def _child(self, delay, fails):
        yield self.sim.timeout(delay)
        if fails:
            raise ValueError("child failed")
        return "child-ok"

    def _worker(self, name, ops):
        sim, log = self.sim, self.log
        for op in ops:
            kind = op[0]
            value = None
            try:
                if kind == "sleep":
                    value = yield sim.timeout(op[1], value=op[1] * 10)
                elif kind == "hold":
                    _, resource, delay = op
                    grant = resource.request()
                    try:
                        yield grant
                    except Interrupt:
                        self.reclaimed += grant.triggered
                        raise
                    try:
                        yield sim.timeout(delay)
                    finally:
                        resource.release()
                    value = resource.in_use
                elif kind == "inline":
                    _, resource, delay = op
                    if not resource.take():
                        grant = resource.request()
                        try:
                            yield grant
                        except Interrupt:
                            self.reclaimed += grant.triggered
                            raise
                    try:
                        if not sim.advance(delay):
                            yield sim.timeout(delay)
                    finally:
                        resource.release()
                    value = resource.in_use
                elif kind == "kick":
                    victim = self.fibers[op[1]]
                    if victim.is_alive and op[1] != name:
                        victim.interrupt(name)
                        value = op[1]
                elif kind == "qput":
                    value = yield any_of(sim, [self.queue.put((name, op[1])),
                                               sim.timeout(op[1] + 2, "full")])
                elif kind == "qget":
                    value = yield any_of(sim, [self.queue.get(),
                                               sim.timeout(op[1] + 2, "empty")])
                elif kind == "fail":
                    doomed = sim.event()
                    doomed.fail(KeyError(op[1]))
                    try:
                        yield doomed
                    except KeyError as exc:
                        value = "caught %s" % exc
                elif kind == "child":
                    child = sim.process(self._child(op[1], op[1] % 2 == 1))
                    try:
                        value = yield child
                    except ValueError as exc:
                        value = str(exc)
                elif kind == "all":
                    value = yield all_of(sim, [
                        sim.timeout(d, value=d) for d in op[1]]
                        + [sim.process(self._child(op[1][0], False))])
                elif kind == "any":
                    value = yield any_of(sim, [
                        sim.timeout(d, value=d) for d in op[1]])
            except Interrupt as interrupt:
                kind, value = "interrupted", interrupt.cause
            log.append((sim.now, name, kind, value))

    def outcome(self):
        assert self.sim.peek() is None
        return (self.log, self.sim.events_processed, self.sim.now,
                [resource.busy_area() for resource in self.resources],
                [resource.in_use for resource in self.resources])


# ------------------------------------------------------------------ drivers
def _heap_state(sim):
    return (sim.now, sim.events_processed,
            sorted(entry[:2] for entry in sim._heap))


def _surviving(sim, crashes, drain, *args):
    """Call ``drain(*args)`` until it returns, recording the heap each time
    an exception escapes the loop."""
    while True:
        try:
            return drain(*args)
        except (RuntimeError, SimulationError) as exc:
            crashes.append((str(exc).split(" of ")[0], _heap_state(sim)))


def _drive_run(world, crashes, _end_ns):
    _surviving(world.sim, crashes, world.sim.run)


def _drive_until_event(world, crashes, _end_ns):
    sim = world.sim
    assert _surviving(sim, crashes, sim.run, world.marker) == "marker"
    assert world.marker.processed
    _surviving(sim, crashes, sim.run)


def _drive_slices(world, crashes, end_ns):
    sim = world.sim
    for deadline in list(range(SLICE_NS, end_ns, SLICE_NS)) + [end_ns]:
        _surviving(sim, crashes, sim.run, deadline)
        assert sim.now == deadline


def _drive_steps(world, crashes, _end_ns):
    sim = world.sim

    def steps():
        while sim.peek() is not None:
            sim.step()

    _surviving(sim, crashes, steps)


DRIVERS = {
    "run": (_drive_run, False),
    "run-until-event": (_drive_until_event, False),
    "run-until-ns-slices": (_drive_slices, False),
    "monitored-run": (_drive_run, True),
    "monitored-until-event": (_drive_until_event, True),
    "monitored-slices": (_drive_slices, True),
}


def _without_counts(outcome, crashes):
    """What ``run()`` must keep while continuing in line: everything but
    the event counts and, of the heap left by each crash, the sequence
    numbers themselves (their order is kept, as ranks)."""
    log, _events, end_ns, areas, in_use = outcome
    heaps = []
    for message, (crash_ns, _count, entries) in crashes:
        rank = {seq: i for i, seq in enumerate(sorted(s for _t, s in entries))}
        heaps.append((message, crash_ns,
                      [(when, rank[seq]) for when, seq in entries]))
    return (log, end_ns, areas, in_use), heaps


def _simulate(seed, driver, monitored, bombs, end_ns=None):
    sim = Simulator(race_check=monitored)
    assert (sim.race is not None) == monitored
    world = World(sim, seed, bombs=bombs)
    crashes = []
    driver(world, crashes, end_ns)
    return world.outcome(), crashes, world.reclaimed


@pytest.mark.parametrize("bombs", [0, 3], ids=["clean", "bombs"])
def test_every_drain_is_repeated_step(bombs):
    reclaimed = interrupted = skipped = 0
    for seed in range(40):
        expected, crashes, grabbed = _simulate(seed, _drive_steps, False, bombs)
        assert len(crashes) == bombs
        log, _events, end_ns, _areas, in_use = expected
        assert "unreachable" not in log
        reclaimed += grabbed
        interrupted += sum(1 for entry in log if entry[2] == "interrupted")
        assert in_use == [0, 0, 0], "seed %d leaked units" % seed
        for name, (driver, monitored) in DRIVERS.items():
            got = _simulate(seed, driver, monitored, bombs, end_ns)
            if monitored:
                assert got == (expected, crashes, grabbed), \
                    "seed %d diverges under %s" % (seed, name)
                continue
            outcome, got_crashes, got_grabbed = got
            assert (_without_counts(outcome, got_crashes), got_grabbed) == (
                _without_counts(expected, crashes), grabbed), \
                "seed %d diverges under %s" % (seed, name)
            assert outcome[1] <= expected[1]
            assert all(mine[1][1] <= theirs[1][1]
                       for mine, theirs in zip(got_crashes, crashes))
            skipped += expected[1] - outcome[1]
    # The sweep must really reach the shapes it claims to cover.
    assert interrupted > 40
    assert reclaimed > 5
    assert skipped > 40  # in-line continuation really engaged
