"""Recovery edge cases, pinned with scripted (not rate-based) faults.

Each test builds the same tiny replicated table on a two-device system and
drives one resilient scan while a :class:`ScriptedInjector` fires faults at
exact read-attempt ordinals:

* a device **crash after a checkpoint commit but before the final ack** —
  the retry must resume from the committed page, not page zero, and the
  result must still be exactly-once;
* a **double fault**: the primary dies, and the replica dies again during
  the failover attempt — the driver must keep alternating until a copy
  answers;
* a **replica fault during a hedge** — the backup leg crashes while the
  primary is still running; the primary's eventual answer must win;
* a **stalled primary losing a hedge** — the replica answers first and the
  primary leg is interrupted mid-I/O (the grant-window reclaim fix keeps
  its channel/die units from leaking).

Every outcome is compared row-for-row against a fault-free run of the same
scan, so none of these recoveries may lose or duplicate rows.
"""

from repro.db.catalog import Column, TableSchema
from repro.db.storage import Database
from repro.host.platform import System
from repro.resilience import (
    HedgePolicy,
    RecoveryTracker,
    ResilientScanDriver,
    RetryPolicy,
    ScanSpec,
)
from repro.sim.units import us_to_ns
from repro.testing.faults import Fault, ScriptedInjector

SCHEMA = TableSchema("edge", [Column("k", "int"), Column("v", "int")])
ROWS = [(i, (i * 7) % 31) for i in range(8000)]


def _predicate(rows):
    return [row for row in rows if row[1] % 3 == 0]


def _run_scan(script0=None, script1=None, policy=None, hedge=None):
    """One resilient scan of the shared table under the given fault scripts.

    Returns ``(rows, driver, injectors)``; the table (and predicate) are
    identical across calls so results are directly comparable.
    """
    system = System(num_ssds=2)
    databases = []
    for fs in system.filesystems:
        db = Database(fs)
        db.load_table(SCHEMA, ROWS)
        databases.append(db)
    storage = databases[0].table(SCHEMA.name)
    injectors = (ScriptedInjector(script0 or {}),
                 ScriptedInjector(script1 or {}))
    system.devices[0].attach_fault_injector(injectors[0])
    system.devices[1].attach_fault_injector(injectors[1])
    driver = ResilientScanDriver(
        system,
        policy=policy or RetryPolicy(checkpoint_pages=1),
        hedge=hedge,
        recovery=RecoveryTracker(system.sim),
    )
    spec = ScanSpec(
        path=storage.path,
        page_rows=lambda page_no: databases[0].read_page_rows(storage, page_no),
        prefilter=_predicate,
        predicate=_predicate,
        project=list,
        page_size=storage.page_size,
        num_pages=storage.num_pages,
        workers=2,
    )
    rows = system.run_fiber(driver.scan(spec, primary=0), name="edge-scan")
    return rows, driver, injectors


def _clean_reference():
    """Fault-free run: the rows every recovery below must reproduce, and
    the read-attempt count the crash scripts are positioned against."""
    rows, _driver, injectors = _run_scan()
    return rows, injectors[0].reads_seen


def test_crash_between_checkpoint_and_ack_resumes_not_restarts():
    expected, total_reads = _clean_reference()
    assert total_reads > 10  # the script below needs room mid-scan
    # Crash the primary most of the way through the scan: several chunk
    # markers have committed, the final ack has not.  No failover — the
    # retry must resume on the *same* device from the committed page.
    crash_at = int(total_reads * 0.7)
    rows, driver, injectors = _run_scan(
        script0={crash_at: Fault("crash")},
        policy=RetryPolicy(checkpoint_pages=1, failover=False),
    )
    assert injectors[0].faults_injected == 1
    assert driver.stats.crashes_seen == 1
    assert driver.stats.retries == 1
    assert driver.stats.resumes >= 1  # restarted past page 0
    assert driver.stats.failovers == 0
    # Exactly-once despite the mid-stream death: committed pages were not
    # re-emitted, uncommitted pages were not lost.
    assert rows == expected
    # The resumed attempt re-read strictly less than a full second scan.
    assert injectors[0].reads_seen < 2 * total_reads


def test_double_fault_during_failover_keeps_alternating():
    expected, _ = _clean_reference()
    # Primary dies at its first read; the failover attempt on the replica
    # dies too; the second failover back to the (now scripted-clean)
    # primary may hit one more scripted crash before converging.
    rows, driver, injectors = _run_scan(
        script0={0: Fault("crash"), 1: Fault("crash")},
        script1={0: Fault("crash")},
    )
    assert rows == expected
    assert driver.stats.device_errors >= 2
    assert driver.stats.failovers >= 2  # left the primary AND the replica
    assert driver.recovery.faults_noted >= 2
    assert injectors[0].faults_injected >= 1
    assert injectors[1].faults_injected >= 1


def test_replica_fault_during_hedge_falls_back_to_primary():
    expected, _ = _clean_reference()
    # A tiny deadline fires the hedge immediately; the replica leg crashes
    # on every read it attempts, so the still-running primary must win.
    hedge = HedgePolicy(default_us=5.0, floor_us=1.0)
    rows, driver, injectors = _run_scan(
        script1={ordinal: Fault("crash") for ordinal in range(200)},
        hedge=hedge,
    )
    assert rows == expected
    assert hedge.hedges_fired >= 1
    assert hedge.primary_wins >= 1
    assert hedge.hedge_wins == 0
    assert driver.stats.crashes_seen >= 1  # the dead backup leg was seen
    assert injectors[1].faults_injected >= 1


def test_stalled_primary_loses_hedge_and_is_interrupted_mid_io():
    expected, _ = _clean_reference()
    # Every primary read stalls for 20ms; the hedge fires at ~5us and the
    # clean replica answers first.  The losing primary leg is interrupted
    # while its reads are in flight — the reclaim path must hand its
    # channel/die grants back without leaking or crashing the sim.
    stall = Fault("stall", us_to_ns(20000.0))
    hedge = HedgePolicy(default_us=5.0, floor_us=1.0)
    rows, driver, injectors = _run_scan(
        script0={ordinal: stall for ordinal in range(500)},
        hedge=hedge,
    )
    assert rows == expected
    assert hedge.hedges_fired >= 1
    assert hedge.hedge_wins >= 1
    assert driver.stats.gave_up == 0
    assert injectors[0].faults_injected >= 1  # the primary really stalled


def test_attempts_that_die_mid_scan_give_their_data_channels_back():
    # Every attempt is one repro.db.ndp.run_offloaded_scan; the ones killed
    # mid-stream must stop their application, or each keeps a data channel
    # per range (same probe as
    # test_hedged_kv_batches_give_their_data_channels_back).
    expected, total_reads = _clean_reference()
    middle = total_reads // 2
    rows, driver, injectors = _run_scan(
        script0={ordinal: Fault("uncorrectable")
                 for ordinal in range(middle, middle + 3)},
        policy=RetryPolicy(checkpoint_pages=1, failover=False),
    )
    assert rows == expected
    assert injectors[0].faults_injected and driver.stats.device_errors >= 1
    assert driver.stats.resumes >= 1  # the error landed mid-scan
    assert driver._contexts and not any(
        context.ssd.channels.data_channels._in_use
        for context in driver._contexts.values())
