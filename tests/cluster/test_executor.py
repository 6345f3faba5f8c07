"""Scatter-gather executor: end-to-end SQL, pruning, crash-mid-scatter."""

import pytest

from repro.cluster import (
    ClusterExecutor,
    ShardedFleet,
    ShardUnavailableError,
)
from repro.core import SSD
from repro.db.catalog import Column, TableSchema
from repro.db.executor import TableRef
from repro.sim.engine import all_of


def _schema():
    return TableSchema("t", [Column("id", "int"), Column("v", "int")])


def _rows(n=6000):
    return [(i, (i * 37) % 101) for i in range(n)]


def _fleet(num_nodes=3, num_shards=3):
    fleet = ShardedFleet(num_nodes=num_nodes, num_shards=num_shards,
                         replication=2)
    fleet.load_sharded(_schema(), _rows(), key="id", kind="hash")
    return fleet


def test_run_sql_group_by_matches_reference():
    fleet = _fleet()
    executor = ClusterExecutor(fleet)
    rel, elapsed_s = executor.run_sql(
        "SELECT v, sum(id) AS s, count(*) AS n FROM t GROUP BY v")
    expected = {}
    for i, v in _rows():
        total, count = expected.get(v, (0, 0))
        expected[v] = (total + i, count + 1)
    got = {row[0]: (row[1], row[2]) for row in rel.rows}
    assert got == expected
    assert elapsed_s > 0
    assert executor.max_fan_out == 3


def test_point_lookup_prunes_to_one_shard():
    fleet = _fleet()
    executor = ClusterExecutor(fleet)
    rel = fleet.run_fiber(executor.point_lookup("t", 17), name="lookup")
    assert rel.rows == [(17, (17 * 37) % 101)]
    assert executor.point_lookups == 1
    assert executor.shard_rpcs == 1  # exactly one shard was consulted


def test_crash_mid_scatter_fails_over_and_stays_correct():
    """The scripted edge case: a primary dies while its scan is in flight.

    The scatter is already running when the node goes dark — in-flight
    NAND work on it dies with DeviceCrashedError (not a clean cutover) and
    the executor must re-issue that shard's scan on the surviving replica,
    returning exactly the full-table answer.  The table is padded so each
    shard's scan spans many pages: the crash provably lands mid-scan (the
    crash injector must report killed reads, not a dispatch-time skip).
    """
    schema = TableSchema("t", [Column("id", "int"), Column("v", "int"),
                               Column("pad", "str")])
    rows = [(i, (i * 37) % 101, "x" * 120) for i in range(30000)]
    fleet = ShardedFleet(num_nodes=3, num_shards=3, replication=2)
    fleet.load_sharded(schema, rows, key="id", kind="hash")
    executor = ClusterExecutor(fleet)
    victim = fleet.catalog.primary_for(0)
    sim = fleet.sim

    def scenario():
        proc = sim.process(
            executor.scatter_fetch(TableRef("t")), name="scatter")
        yield sim.timeout(400_000)  # 400 us: every shard scan is mid-flight
        assert proc.is_alive  # the scatter really is still running
        fleet.crash_node(victim)
        yield all_of(sim, [proc])
        return proc.value

    rel = fleet.run_fiber(scenario(), name="crash-scenario")
    assert sorted(rel.rows) == sorted(rows)
    assert executor.failovers >= 1
    assert fleet.crashes == 1
    # The crash really interrupted NAND work (in-flight death, not a
    # clean routing cutover before the scan started).
    killed = sum(injector.crashes_injected
                 for injector in fleet._crash_injectors[victim])
    assert killed > 0


def test_every_copy_down_raises_shard_unavailable():
    fleet = _fleet()
    executor = ClusterExecutor(fleet)
    for node in fleet.replica_map.nodes_for(0):
        fleet.crash_node(node)
    with pytest.raises(ShardUnavailableError):
        fleet.run_fiber(executor.scatter_fetch(TableRef("t")), name="dead")


def test_hedged_kv_batches_give_their_data_channels_back():
    # A hedge loser is interrupted inside KVStore.get_biscuit, between the
    # start and the stop of its kv-lookup application.  Unless the stop runs
    # on the interrupt too, each such loser keeps two of its store's 16 data
    # channels, and the ninth batch blocks in acquire_data_channel for good.
    from repro.cluster import ShardedKVStore
    from repro.resilience import HedgePolicy

    fleet = ShardedFleet(num_nodes=2, num_shards=2, replication=2,
                         ssds_per_node=1)
    items = [(b"key%04d" % i, b"v" * 64) for i in range(400)]
    kv = ShardedKVStore.build(fleet, items, name="kv")
    keys = [key for key, _ in items[::7]]
    losers = 0
    for _batch in range(10):
        hedge = HedgePolicy(default_us=1_000.0)
        executor = ClusterExecutor(fleet, hedge=hedge)
        found = fleet.run_fiber(executor.kv_lookup(kv, keys), name="kv")
        assert found == {key: b"v" * 64 for key in keys}
        losers += hedge.hedges_fired
        in_use = [SSD(store.system).channels.data_channels._in_use
                  for store in kv.stores.values() if store._mid is not None]
        assert in_use and not any(in_use)
    assert losers  # legs really were interrupted mid-application
