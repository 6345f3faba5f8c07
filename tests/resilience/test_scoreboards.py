"""Several scoreboards published on one registry: each owner keeps reading
its own counts, the registry reports their sum, and publishing one more
never rewrites another's history."""

from repro.host.platform import System
from repro.resilience import HedgePolicy, RecoveryTracker, ResilientScanDriver


def test_second_hedge_policy_keeps_the_first_ones_history():
    system = System(num_ssds=2)
    first, second = HedgePolicy(), HedgePolicy()
    first.hedges_fired = 5
    ResilientScanDriver(system, hedge=first)
    ResilientScanDriver(system, hedge=second)
    fired = system.metrics.counter("resilience.hedge.hedges_fired")
    assert first.hedges_fired == 5 and fired.value == 5
    second.hedges_fired += 2
    assert (first.hedges_fired, second.hedges_fired) == (5, 2)
    assert fired.value == 7
    assert first.counters()["hedges_fired"] == 5


def test_second_recovery_tracker_keeps_the_first_ones_history():
    system = System(num_ssds=2)
    first, second = RecoveryTracker(system.sim), RecoveryTracker(system.sim)
    first.note_fault(0)
    ResilientScanDriver(system, recovery=first)
    ResilientScanDriver(system, recovery=second)
    noted = system.metrics.counter("resilience.recovery.faults_noted")
    assert first.faults_noted == 1 and noted.value == 1
    second.note_fault(1)
    assert (first.faults_noted, second.faults_noted) == (1, 1)
    assert noted.value == 2


def test_two_drivers_on_one_system_report_their_own_retries():
    system = System(num_ssds=2)
    one, other = ResilientScanDriver(system), ResilientScanDriver(system)
    one.stats.retries += 3
    assert other.counters()["retries"] == 0
    assert one.counters()["retries"] == 3
    assert system.metrics.counter("resilience.retries").value == 3
