"""Scale-up sharded search: correctness and scaling behavior."""

import pytest

from repro.apps.sharded_search import (
    install_sharded_weblog,
    run_biscuit_sharded,
    run_conv_sharded,
)
from repro.host.platform import System
from repro.sim.units import MIB


def test_multi_ssd_system_wiring():
    system = System(num_ssds=3)
    assert system.num_ssds == 3
    assert len(system.filesystems) == 3
    assert system.device is system.devices[0]
    assert all(d.sim is system.sim for d in system.devices)


def test_zero_ssds_rejected():
    with pytest.raises(ValueError):
        System(num_ssds=0)


def test_shards_installed_on_every_device():
    system = System(num_ssds=4)
    install_sharded_weblog(system, 64 * MIB, "KEY")
    for fs in system.filesystems:
        inode = fs.lookup("/logs/shard.log")
        assert inode.size == 16 * MIB


def test_biscuit_counts_are_per_device_deterministic():
    system = System(num_ssds=2)
    install_sharded_weblog(system, 32 * MIB, "KEY", page_match_probability=0.1)
    first, _ = run_biscuit_sharded(system, "KEY")
    second, _ = run_biscuit_sharded(system, "KEY")
    assert first == second > 0


def test_biscuit_scales_with_devices():
    def throughput(num_ssds):
        system = System(num_ssds=num_ssds)
        total = 32 * MIB * num_ssds
        install_sharded_weblog(system, total, "KEY")
        _, elapsed = run_biscuit_sharded(system, "KEY")
        return total / elapsed

    single = throughput(1)
    quad = throughput(4)
    assert quad > 3.0 * single


def test_fabric_caps_conv_throughput():
    def conv_rate(fabric):
        system = System(num_ssds=8, fabric_bytes_per_sec=fabric)
        total = 16 * MIB * 8
        install_sharded_weblog(system, total, "KEY")
        _, elapsed = run_conv_sharded(system, "KEY")
        return total / elapsed

    capped = conv_rate(1.0e9)
    free = conv_rate(64e9)
    assert capped <= 1.05e9
    assert free > 2 * capped


def test_per_device_files_are_independent():
    system = System(num_ssds=2)
    system.filesystems[0].install("/only-here", b"zero")
    assert system.filesystems[0].exists("/only-here")
    assert not system.filesystems[1].exists("/only-here")


def test_ssd_facade_binds_to_device_index():
    from repro.core import SSD
    system = System(num_ssds=2)
    first = SSD(system, device_index=0)
    second = SSD(system, device_index=1)
    assert first.runtime.device is system.devices[0]
    assert second.runtime.device is system.devices[1]
    assert first.dev_path == "/dev/nvme0n1"
    assert second.dev_path == "/dev/nvme1n1"
