"""The one deadline race, run against toy legs (no SSD needed).

Every edge the cluster's hedged RPC and the scan driver's hedged attempt
rely on is scripted once here against :func:`repro.resilience.hedge.
hedged_race`: who wins, what is interrupted, which error surfaces, and
the exact scoreboard afterwards.  A toy leg sleeps ``delay_ns`` and then
returns or raises; its ``finally`` is logged so an interrupted loser is
visibly unwound rather than abandoned.
"""

import pytest

from repro.core.errors import DeviceError
from repro.instrument.events import EventBus
from repro.resilience.hedge import HedgePolicy, hedged_race
from repro.sim.engine import Simulator

DEADLINE_US = 10.0
DEADLINE_NS = 10_000
OK, FAIL = "ok", "fail"


def _counters(hedges_fired=0, hedge_wins=0, primary_wins=0, failovers=0):
    return {"hedges_fired": hedges_fired, "hedge_wins": hedge_wins,
            "primary_wins": primary_wins, "failovers": failovers}


class Race:
    """One scripted race: ``scripts[copy] = (outcome, delay_ns)``."""

    def __init__(self, scripts, copies=(0, 1), early_failure="failover",
                 both_failed="backup", traced=False):
        self.sim = Simulator()
        self.bus = EventBus(self.sim) if traced else None
        self.policy = HedgePolicy(default_us=DEADLINE_US, floor_us=1.0)
        self.scripts = scripts
        self.log = []  # ("start" | "finally", copy, now_ns)
        self.absorbed = []  # (copy, str(error)) seen by on_leg_failed
        self.scopes = {}  # copy -> the causal scope its leg ran under
        self.value = self.error = None
        fiber = hedged_race(
            self.sim, self.policy, list(copies), self._start_leg, "x",
            early_failure=early_failure, both_failed=both_failed,
            on_leg_failed=lambda copy, error: self.absorbed.append(
                (copy, str(error))))
        if traced:
            fiber = self._scoped(fiber)
        try:
            self.value = self.sim.run(self.sim.process(fiber))
        except DeviceError as exc:
            self.error = str(exc)
        self.end_ns = self.sim.now

    def _scoped(self, fiber):
        with self.bus.scope("q1"):
            value = yield from fiber
        return value

    def _start_leg(self, copy):
        outcome, delay_ns = self.scripts[copy]
        self.log.append(("start", copy, self.sim.now))
        if self.bus is not None:
            self.scopes[copy] = self.bus.ctx.qid
        try:
            yield self.sim.timeout(delay_ns)
        finally:
            self.log.append(("finally", copy, self.sim.now))
        if outcome == FAIL:
            raise DeviceError("copy %d failed" % copy)
        return "value-%d" % copy

    def started(self):
        return [copy for what, copy, _ in self.log if what == "start"]

    def unwound_at(self, copy):
        return next(now for what, who, now in self.log
                    if what == "finally" and who == copy)


# (id, scripts, early_failure, both_failed,
#  value, error, counters, absorbed, legs started, end_ns)
OUTCOMES = [
    ("fast-primary-never-fires-the-backup",
     {0: (OK, 1_000), 1: (OK, 1)}, "failover", "backup",
     "value-0", None, _counters(primary_wins=1), [], [0], 1_000),
    ("slow-primary-loses-to-the-backup",
     {0: (OK, 900_000), 1: (OK, 500)}, "failover", "backup",
     "value-1", None, _counters(hedges_fired=1, hedge_wins=1), [], [0, 1],
     DEADLINE_NS + 500),
    ("early-primary-failure-fails-over-at-once",
     {0: (FAIL, 1_000), 1: (OK, 500)}, "failover", "backup",
     "value-1", None, _counters(hedge_wins=1, failovers=1),
     [(0, "copy 0 failed")], [0, 1], 1_500),
    ("early-primary-failure-is-raised-to-the-callers-loop",
     {0: (FAIL, 1_000), 1: (OK, 500)}, "raise", "last",
     None, "copy 0 failed", _counters(), [], [0], 1_000),
    ("failover-onto-a-backup-that-also-fails",
     {0: (FAIL, 1_000), 1: (FAIL, 500)}, "failover", "backup",
     None, "copy 1 failed", _counters(failovers=1),
     [(0, "copy 0 failed")], [0, 1], 1_500),
    ("backup-fails-first-then-the-primary-wins",
     {0: (OK, 50_000), 1: (FAIL, 500)}, "raise", "last",
     "value-0", None, _counters(hedges_fired=1, primary_wins=1),
     [(1, "copy 1 failed")], [0, 1], 50_000),
    ("backup-fails-first-then-the-primary-fails-backup-error",
     {0: (FAIL, 50_000), 1: (FAIL, 500)}, "failover", "backup",
     None, "copy 1 failed", _counters(hedges_fired=1),
     [(1, "copy 1 failed")], [0, 1], 50_000),
    ("backup-fails-first-then-the-primary-fails-last-error",
     {0: (FAIL, 50_000), 1: (FAIL, 500)}, "raise", "last",
     None, "copy 0 failed", _counters(hedges_fired=1),
     [(1, "copy 1 failed")], [0, 1], 50_000),
    ("primary-fails-after-the-hedge-fired-backup-covers-it",
     {0: (FAIL, 12_000), 1: (OK, 30_000)}, "raise", "last",
     "value-1", None,
     _counters(hedges_fired=1, hedge_wins=1, failovers=1),
     [(0, "copy 0 failed")], [0, 1], DEADLINE_NS + 30_000),
    ("primary-fails-after-the-hedge-fired-and-so-does-the-backup",
     {0: (FAIL, 12_000), 1: (FAIL, 30_000)}, "raise", "last",
     None, "copy 1 failed", _counters(hedges_fired=1),
     [(0, "copy 0 failed")], [0, 1], DEADLINE_NS + 30_000),
    ("same-timestamp-tie-goes-to-the-primary",
     {0: (OK, DEADLINE_NS + 700), 1: (OK, 700)}, "failover", "backup",
     "value-0", None, _counters(hedges_fired=1, primary_wins=1), [], [0, 1],
     DEADLINE_NS + 700),
    ("same-timestamp-tie-with-a-failed-primary-is-a-covered-failure",
     {0: (FAIL, DEADLINE_NS + 700), 1: (OK, 700)}, "failover", "backup",
     "value-1", None,
     _counters(hedges_fired=1, hedge_wins=1, failovers=1),
     [(0, "copy 0 failed")], [0, 1], DEADLINE_NS + 700),
]


@pytest.mark.parametrize(
    "scripts,early_failure,both_failed,value,error,counters,absorbed,"
    "started,end_ns",
    [row[1:] for row in OUTCOMES], ids=[row[0] for row in OUTCOMES])
def test_race_outcome(scripts, early_failure, both_failed, value, error,
                      counters, absorbed, started, end_ns):
    race = Race(scripts, early_failure=early_failure,
                both_failed=both_failed)
    assert (race.value, race.error) == (value, error)
    assert race.policy.counters() == counters
    assert race.absorbed == absorbed
    assert race.started() == started
    assert race.end_ns == end_ns


def test_the_loser_is_interrupted_and_its_finally_runs():
    race = Race({0: (OK, 900_000), 1: (OK, 500)})
    assert race.value == "value-1"
    # Unwound the moment the backup answered, not at its own 900 us mark,
    # and the dead leg never runs again when its abandoned timer pops.
    assert race.unwound_at(0) == race.end_ns == DEADLINE_NS + 500
    entries = len(race.log)
    race.sim.run()
    assert len(race.log) == entries


def test_a_winning_primary_is_the_only_latency_the_policy_observes():
    assert Race({0: (OK, 1_000), 1: (OK, 1)}).policy.samples == 1
    assert Race({0: (OK, 900_000), 1: (OK, 500)}).policy.samples == 0


def test_single_copy_arms_no_deadline():
    solo = Race({0: (OK, 1_000)}, copies=(0,))
    assert solo.value == "value-0"
    assert solo.policy.counters() == _counters(primary_wins=1)
    assert solo.sim.peek() is None  # no timer left behind
    # Event for event what spawning the leg and waiting for it costs.
    plain = Simulator()

    def leg():
        yield plain.timeout(1_000)
        return "value-0"

    def plain_call():
        value = yield plain.process(leg())
        return value

    assert plain.run(plain.process(plain_call())) == "value-0"
    assert solo.sim.events_processed == plain.events_processed
    # With a second copy the same call does leave its deadline armed.
    pair = Race({0: (OK, 1_000), 1: (OK, 1)})
    assert pair.sim.peek() == DEADLINE_NS


def test_single_copy_failure_is_raised_whatever_the_early_failure_mode():
    for early_failure in ("failover", "raise"):
        solo = Race({0: (FAIL, 1_000)}, copies=(0,),
                    early_failure=early_failure)
        assert solo.error == "copy 0 failed"
        assert solo.policy.counters() == _counters()
        assert solo.absorbed == []


def test_traced_legs_are_causal_children_and_the_armed_window_is_a_span():
    race = Race({0: (OK, 900_000), 1: (OK, 500)}, traced=True)
    assert race.value == "value-1"
    waits = [e for e in race.bus.events
             if (e.cat, e.name) == ("resil", "hedge-wait")]
    assert [(e.ts_ns, e.dur_ns, e.track, e.args) for e in waits] == [
        (0, DEADLINE_NS, "host/resil", {"device": 0, "q": "q1"})]
    # Each leg runs as a causal child of the call that raced it.
    assert race.scopes == {0: "q1+primary-x0", 1: "q1+hedge-x1"}


def test_deadline_is_the_windows_p99_once_warm():
    policy = HedgePolicy(default_us=5_000.0, floor_us=1.0)
    for latency_us in range(1, 8):
        policy.observe(float(latency_us))
    assert policy.deadline_us() == 5_000.0  # seven samples: still the default
    policy.observe(8.0)
    assert policy.deadline_us() == 8.0  # p99 of eight samples is the largest
    for _ in range(300):
        policy.observe(2.0)
    assert policy.samples == 256 and policy.deadline_us() == 2.0  # 8.0 slid out
    assert HedgePolicy(floor_us=200.0).deadline_us() == 5_000.0
