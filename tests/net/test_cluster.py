"""Network links, storage nodes, scale-out strategies."""

import pytest

from repro.apps.sharded_search import install_cluster_weblog, run_strategy
from repro.net.cluster import NetworkLink, ScaleOutCluster
from repro.sim.engine import Simulator, all_of
from repro.sim.units import MIB


# -------------------------------------------------------------------- links
def test_link_serialization_time():
    sim = Simulator()
    link = NetworkLink(sim, bytes_per_sec=1e9, latency_us=0.0)
    sim.run(sim.process(link.send(1_000_000)))
    assert abs(sim.now_s - 0.001) < 1e-9


def test_link_latency_added():
    sim = Simulator()
    link = NetworkLink(sim, bytes_per_sec=1e9, latency_us=50.0)
    sim.run(sim.process(link.send(1000)))
    assert sim.now_us >= 50.0


def test_link_messages_serialize_but_latency_pipelines():
    sim = Simulator()
    link = NetworkLink(sim, bytes_per_sec=1e9, latency_us=100.0)
    fibers = [sim.process(link.send(1_000_000)) for _ in range(4)]
    sim.run(all_of(sim, fibers))
    # 4 x 1ms serialization back to back + one trailing latency.
    assert abs(sim.now_s - (0.004 + 100e-6)) < 1e-6
    assert link.bytes_moved == 4_000_000


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        NetworkLink(sim, bytes_per_sec=0)
    with pytest.raises(ValueError):
        NetworkLink(sim, latency_us=-1)


# ------------------------------------------------------------------ cluster
def test_cluster_wiring():
    cluster = ScaleOutCluster(num_nodes=3, ssds_per_node=2)
    assert cluster.num_nodes == 3
    for node in cluster.nodes:
        assert node.system.sim is cluster.sim
        assert node.system.num_ssds == 2


def test_cluster_needs_nodes():
    with pytest.raises(ValueError):
        ScaleOutCluster(num_nodes=0)


def test_rpc_round_trip_costs_latency_twice():
    cluster = ScaleOutCluster(num_nodes=1, link_latency_us=100.0)
    node = cluster.nodes[0]

    def work():
        yield cluster.sim.timeout(0)
        return "done"

    value = cluster.run_fiber(node.serve(work(), 128, 128))
    assert value == "done"
    assert cluster.sim.now_us >= 200.0
    assert node.rpcs_served == 1


def test_fan_out_reaches_every_node():
    cluster = ScaleOutCluster(num_nodes=4)

    def make_work(node):
        def work():
            yield cluster.sim.timeout(1000)
            return node.name

        return work()

    names = cluster.run_fiber(cluster.fan_out(make_work))
    assert sorted(names) == ["node0", "node1", "node2", "node3"]


# --------------------------------------------------------------- strategies
@pytest.fixture(scope="module")
def loaded_cluster():
    cluster = ScaleOutCluster(num_nodes=2, ssds_per_node=2, node_cores=4)
    install_cluster_weblog(cluster, 128 * MIB, "KEY")
    return cluster


def test_all_strategies_complete(loaded_cluster):
    for strategy in ("pull", "node-compute", "in-ssd-ndp"):
        _, elapsed = run_strategy(loaded_cluster, strategy, "KEY")
        assert elapsed > 0


def test_strategy_ordering(loaded_cluster):
    _, pull_s = run_strategy(loaded_cluster, "pull", "KEY")
    _, node_s = run_strategy(loaded_cluster, "node-compute", "KEY")
    _, ndp_s = run_strategy(loaded_cluster, "in-ssd-ndp", "KEY")
    assert pull_s > node_s > ndp_s


def test_ndp_counts_deterministic(loaded_cluster):
    first, _ = run_strategy(loaded_cluster, "in-ssd-ndp", "KEY")
    second, _ = run_strategy(loaded_cluster, "in-ssd-ndp", "KEY")
    assert first == second > 0


def test_pull_is_link_bound():
    slow = ScaleOutCluster(num_nodes=2, ssds_per_node=1,
                           link_bytes_per_sec=0.5e9)
    install_cluster_weblog(slow, 64 * MIB, "KEY")
    _, elapsed = run_strategy(slow, "pull", "KEY")
    rate = 64 * MIB / elapsed
    assert rate <= 2 * 0.5e9 * 1.05


# --------------------------------------------------------------- placement
def test_round_robin_cycles_indices():
    from repro.net.cluster import RoundRobinPlacement

    policy = RoundRobinPlacement()
    candidates = [(0, (0, 0)), (1, (0, 0)), (2, (0, 0))]
    picks = [policy.pick(candidates) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_ineligible():
    from repro.net.cluster import RoundRobinPlacement

    policy = RoundRobinPlacement()
    assert policy.pick([(0, (0, 0)), (1, (0, 0))]) == 0
    # Device 1 became ineligible (full): the cycle skips to 2, then wraps.
    assert policy.pick([(0, (1, 0)), (2, (0, 0))]) == 2
    assert policy.pick([(0, (1, 0)), (1, (0, 0))]) == 0


def test_least_loaded_picks_minimum_then_index():
    from repro.net.cluster import LeastLoadedPlacement

    policy = LeastLoadedPlacement()
    assert policy.pick([(0, (2, 5)), (1, (1, 9)), (2, (2, 0))]) == 1
    # Ties on load break on the smaller device index, deterministically.
    assert policy.pick([(2, (1, 3)), (0, (1, 3))]) == 0


def test_placement_rejects_empty_candidates():
    from repro.net.cluster import make_placement

    for name in ("round_robin", "least_loaded"):
        with pytest.raises(ValueError):
            make_placement(name).pick([])
    with pytest.raises(ValueError):
        make_placement("hash_ring")


def test_serving_jobs_spread_across_devices():
    """Multi-device serving: jobs land on distinct devices and each
    device's metrics live under its own dotted name."""
    from repro.serve.mixes import run_mix

    result = run_mix("multi_device", placement="round_robin")
    registry = result.system.metrics
    per_device = [
        registry.counter("serve.device%d.dispatched" % index).value
        for index in range(result.system.num_ssds)
    ]
    assert len(per_device) == 2
    assert all(count > 0 for count in per_device)
    # Distinct metric names really are distinct objects (no aliasing).
    assert registry.counter("serve.device0.dispatched") is not \
        registry.counter("serve.device1.dispatched")
    assert sum(per_device) <= result.manager.jobs_submitted


def test_least_loaded_tie_break_survives_perturbation():
    """Regression: the least-loaded pick may only depend on the candidate
    *set*, never on arrival order.  Four same-timestamp fibers each present
    the same all-tied candidate set in a different rotation; the race
    monitor's perturbation harness then re-runs the workload with the pop
    order *reversed* inside every provably order-free batch.  Every fiber
    must still pick device 0 (lowest index), and the trace digest must stay
    byte-identical under the reversal."""
    from repro.analysis.races import check_workload
    from repro.net.cluster import LeastLoadedPlacement
    from repro.sim.engine import Simulator

    def workload():
        sim = Simulator()
        policy = LeastLoadedPlacement()
        picks = {}

        def chooser(fiber_id):
            # Stagger the scheduling moments (so batches stay provably
            # order-free), then converge on one timestamp for the pick.
            yield sim.timeout(fiber_id + 1)
            yield sim.timeout(1000 - fiber_id)
            candidates = [(index, (1, 0)) for index in range(4)]
            rotation = candidates[fiber_id:] + candidates[:fiber_id]
            picks[fiber_id] = policy.pick(rotation)

        for fiber_id in range(4):
            sim.process(chooser(fiber_id), name="chooser%d" % fiber_id)
        sim.run()
        return tuple(picks[i] for i in range(4))

    report = check_workload(workload)
    assert report.clean, report.render()
    assert report.reversed_batches > 0  # the perturbation really engaged
    # Ties resolve to the lowest index whatever the presentation order.
    assert report.result == (0, 0, 0, 0)


# --------------------------------------------------------- replica placement
def test_replica_map_rotation_placement():
    from repro.net.cluster import ReplicaMap

    replica_map = ReplicaMap(num_shards=6, num_nodes=3, replication=2)
    assert replica_map.primary(0) == 0
    assert replica_map.primary(4) == 1
    assert replica_map.replicas(0) == [1]
    assert replica_map.replicas(2) == [0]  # ring wraps
    assert replica_map.nodes_for(5) == [2, 0]


def test_replica_map_spreads_a_dead_nodes_load():
    """Rotation means node 0's shards are replicated across *every* other
    node, not mirrored onto a single partner."""
    from repro.net.cluster import ReplicaMap

    replica_map = ReplicaMap(num_shards=12, num_nodes=4, replication=2)
    backups = {replica_map.replicas(s)[0]
               for s in replica_map.primaries_on(0)}
    assert backups == {1}  # with replication=2 the next node backs up...
    replica_map = ReplicaMap(num_shards=12, num_nodes=4, replication=3)
    backups = set()
    for shard in replica_map.primaries_on(0):
        backups.update(replica_map.replicas(shard))
    assert backups == {1, 2}  # ...and wider replication fans further


def test_replica_map_shards_on_counts_every_copy():
    from repro.net.cluster import ReplicaMap

    replica_map = ReplicaMap(num_shards=8, num_nodes=4, replication=2)
    for node in range(4):
        held = replica_map.shards_on(node)
        assert held == sorted(held)
        # Each node holds its primaries plus its predecessors' replicas.
        assert len(held) == len(replica_map.primaries_on(node)) * 2


def test_replica_map_validation():
    from repro.net.cluster import ReplicaMap

    with pytest.raises(ValueError):
        ReplicaMap(num_shards=0, num_nodes=2)
    with pytest.raises(ValueError):
        ReplicaMap(num_shards=2, num_nodes=0)
    with pytest.raises(ValueError):
        ReplicaMap(num_shards=2, num_nodes=2, replication=3)


# --------------------------------------------------------------- hedged reads
def _hedge_fixture(num_nodes=2):
    from repro.net.cluster import ReplicaMap
    from repro.resilience import HedgePolicy

    cluster = ScaleOutCluster(num_nodes=num_nodes, link_latency_us=10.0)
    replica_map = ReplicaMap(num_shards=num_nodes, num_nodes=num_nodes)
    return cluster, replica_map, HedgePolicy


def test_hedged_call_fast_primary_never_hedges():
    cluster, replica_map, HedgePolicy = _hedge_fixture()
    policy = HedgePolicy(default_us=1_000_000.0)

    def make_work(node):
        def work():
            yield cluster.sim.timeout(1000)
            return node.name

        return work()

    value = cluster.run_fiber(
        cluster.hedged_call(0, replica_map, make_work, policy))
    assert value == cluster.nodes[0].name
    assert policy.counters() == {"hedges_fired": 0, "hedge_wins": 0,
                                 "primary_wins": 1, "failovers": 0}


def test_hedged_call_slow_primary_loses_to_replica():
    from repro.sim.units import us_to_ns

    cluster, replica_map, HedgePolicy = _hedge_fixture()
    policy = HedgePolicy(default_us=300.0)

    def make_work(node):
        def work():
            # The primary (node 0) wedges; the replica answers promptly.
            delay_us = 50_000.0 if node is cluster.nodes[0] else 50.0
            yield cluster.sim.timeout(us_to_ns(delay_us))
            return node.name

        return work()

    value = cluster.run_fiber(
        cluster.hedged_call(0, replica_map, make_work, policy))
    assert value == cluster.nodes[1].name
    assert policy.hedges_fired == 1
    assert policy.hedge_wins == 1
    assert policy.primary_wins == 0
    # The loser was interrupted, not left running to the 50ms mark.
    assert cluster.sim.now_us < 50_000.0


def test_hedged_call_failing_primary_fails_over_before_the_deadline():
    from repro.core.errors import DeviceError

    cluster, replica_map, HedgePolicy = _hedge_fixture()
    policy = HedgePolicy(default_us=1_000_000.0)

    def make_work(node):
        def work():
            yield cluster.sim.timeout(1000)
            if node is cluster.nodes[0]:
                raise DeviceError("primary media error")
            return node.name

        return work()

    value = cluster.run_fiber(
        cluster.hedged_call(0, replica_map, make_work, policy))
    assert value == cluster.nodes[1].name
    assert policy.failovers == 1
    assert policy.hedges_fired == 0  # no deadline wait: straight failover
    # Failing over did not burn the megasecond hedge deadline.
    assert cluster.sim.now_us < 10_000.0


def test_hedged_call_raises_only_when_every_copy_fails():
    from repro.core.errors import DeviceError

    cluster, replica_map, HedgePolicy = _hedge_fixture()
    policy = HedgePolicy(default_us=100.0)

    def make_work(node):
        def work():
            yield cluster.sim.timeout(1000)
            raise DeviceError("%s down" % node.name)

        return work()

    with pytest.raises(DeviceError):
        cluster.run_fiber(
            cluster.hedged_call(0, replica_map, make_work, policy))


def test_hedged_call_single_replica_degenerates_to_plain_rpc():
    cluster, replica_map, HedgePolicy = _hedge_fixture()
    from repro.net.cluster import ReplicaMap

    solo = ReplicaMap(num_shards=2, num_nodes=2, replication=1)
    policy = HedgePolicy(default_us=100.0)

    def make_work(node):
        def work():
            yield cluster.sim.timeout(1000)
            return node.name

        return work()

    value = cluster.run_fiber(
        cluster.hedged_call(1, solo, make_work, policy))
    assert value == cluster.nodes[1].name
    assert policy.hedges_fired == 0
    assert policy.primary_wins == 1


def test_traced_hedged_call_tags_its_legs_as_causal_children():
    from repro.instrument.causal import COMPONENTS, attribute
    from repro.instrument.events import EventBus
    from repro.net.cluster import ReplicaMap
    from repro.resilience import HedgePolicy
    from repro.sim.engine import Simulator
    from repro.sim.units import us_to_ns

    sim = Simulator()
    bus = EventBus(sim)
    cluster = ScaleOutCluster(num_nodes=2, link_latency_us=10.0, sim=sim)
    replica_map = ReplicaMap(num_shards=2, num_nodes=2)
    policy = HedgePolicy(default_us=300.0)

    def make_work(node):
        # The primary (node 0) wedges; the replica reads a little and answers.
        if node is cluster.nodes[0]:
            return _sleep(sim, us_to_ns(50_000.0))
        handle = node.system.open_host("/traced")
        return handle.read_timing_only(0, 64 * 1024)

    def call():
        with bus.scope("q1"):
            value = yield from cluster.hedged_call(
                0, replica_map, make_work, policy)
        return value

    cluster.nodes[1].system.fs.install_synthetic("/traced", 1 << 20)
    cluster.run_fiber(call())
    assert policy.counters() == {"hedges_fired": 1, "hedge_wins": 1,
                                 "primary_wins": 0, "failovers": 0}
    scopes = {event.args["q"] for event in bus.events
              if event.args and "q" in event.args}
    assert scopes == {"q1", "q1+hedge-node1"}  # the wedged primary emits nothing
    (row,) = attribute(bus.events).queries
    assert row["qid"] == "q1"
    assert row["hedge_wait"] == us_to_ns(300.0)
    assert sum(row[name] for name in COMPONENTS) == row["end_to_end"]


def _sleep(sim, delay_ns):
    yield sim.timeout(delay_ns)
