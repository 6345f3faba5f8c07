"""Host interface model: link cap, queue slots, byte accounting."""

import pytest

from repro.sim.engine import Simulator, all_of
from repro.sim.units import MIB
from repro.ssd.config import SSDConfig
from repro.ssd.nvme import Fabric, HostInterface


def make_interface(**overrides):
    sim = Simulator()
    return sim, HostInterface(sim, SSDConfig(**overrides))


def test_transfer_time_matches_link_rate():
    sim, interface = make_interface()
    sim.run(sim.process(interface.transfer_to_host(32 * MIB)))
    expected = 32 * MIB / 3.2e9
    assert abs(sim.now_s - expected) / expected < 0.001


def test_zero_transfer_free():
    sim, interface = make_interface()
    sim.run(sim.process(interface.transfer_to_host(0)))
    assert sim.now == 0
    assert interface.commands == 0


def test_concurrent_transfers_serialize_on_link():
    sim, interface = make_interface()
    fibers = [sim.process(interface.transfer_to_host(MIB)) for _ in range(4)]
    sim.run(all_of(sim, fibers))
    expected = 4 * MIB / 3.2e9
    assert abs(sim.now_s - expected) / expected < 0.001


def test_direction_accounting():
    sim, interface = make_interface()
    sim.run(sim.process(interface.transfer_to_host(1000)))
    sim.run(sim.process(interface.transfer_to_device(500)))
    assert interface.bytes_to_host == 1000
    assert interface.bytes_to_device == 500
    assert interface.commands == 2


def test_queue_depth_limits_outstanding_commands():
    sim, interface = make_interface()
    depth = SSDConfig.nvme_queue_depth
    held = []

    def holder():
        yield interface.acquire_slot()
        held.append(sim.now)
        yield sim.timeout(100)
        interface.release_slot()

    fibers = [sim.process(holder()) for _ in range(depth + 2)]
    sim.run(all_of(sim, fibers))
    # The two past the queue depth waited a full slot-hold each.
    assert held == [0] * depth + [100, 100]


def test_utilization_reported():
    sim, interface = make_interface()
    sim.run(sim.process(interface.transfer_to_host(MIB)))

    def idle():
        yield sim.timeout(sim.now)  # equal idle period

    sim.run(sim.process(idle()))
    assert 0.4 < interface.link.utilization() < 0.6


# --------------------------------------------------------------- fabric hops
def test_fabric_transfer_is_cut_through_not_store_and_forward():
    # Equal-rate fabric: the two hops overlap, so one transfer costs one hop
    # (Table II port latencies depend on this — a serialized double charge
    # would roughly double every Conv round trip behind a switch).
    sim = Simulator()
    config = SSDConfig()
    fabric = Fabric(sim, config.pcie_bytes_per_sec)
    interface = HostInterface(sim, config, fabric=fabric)
    sim.run(sim.process(interface.transfer_to_host(32 * MIB)))
    expected = 32 * MIB / config.pcie_bytes_per_sec
    assert abs(sim.now_s - expected) / expected < 0.001


def test_slow_fabric_costs_the_slower_hop():
    sim = Simulator()
    config = SSDConfig()
    fabric = Fabric(sim, config.pcie_bytes_per_sec / 2)
    interface = HostInterface(sim, config, fabric=fabric)
    sim.run(sim.process(interface.transfer_to_host(32 * MIB)))
    expected = 32 * MIB / (config.pcie_bytes_per_sec / 2)  # max, not sum
    assert abs(sim.now_s - expected) / expected < 0.001


def test_fabric_still_serializes_competing_devices():
    sim = Simulator()
    config = SSDConfig()
    fabric = Fabric(sim, config.pcie_bytes_per_sec)
    first = HostInterface(sim, config, fabric=fabric)
    second = HostInterface(sim, config, fabric=fabric)
    fibers = [
        sim.process(first.transfer_to_host(32 * MIB)),
        sim.process(second.transfer_to_host(32 * MIB)),
    ]
    sim.run(all_of(sim, fibers))
    # Two devices' worth of bytes through one switch: 2x one hop.
    expected = 2 * 32 * MIB / config.pcie_bytes_per_sec
    assert abs(sim.now_s - expected) / expected < 0.001
    assert fabric.bytes_moved == 2 * 32 * MIB
