"""Controller + device: latency calibration, striping, matcher costs, content."""

import gc
import sys

import pytest

from repro.sim.engine import Simulator, all_of
from repro.sim.units import MIB, us_to_ns
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice


def make_device(**overrides):
    sim = Simulator()
    return sim, SSDDevice(sim, SSDConfig(**overrides))


def run(sim, fiber):
    start = sim.now
    sim.run(sim.process(fiber))
    return (sim.now - start) / 1e3  # microseconds


# ------------------------------------------------------------- calibration
def test_internal_4k_read_is_paper_latency():
    sim, device = make_device()
    latency = run(sim, device.internal_read([0]))
    assert abs(latency - 75.9) < 1.0  # Table III


def test_host_4k_read_adds_interface_crossing():
    sim, device = make_device()
    internal = run(sim, device.internal_read([0]))

    def device_side_of_host_read():
        # What HostIO sequences between driver submit and complete.
        yield from device.controller.read_pages([1])
        yield from device.interface.transfer_to_host(
            device.config.logical_page_bytes)

    host = run(sim, device_side_of_host_read())
    assert host > internal
    # PCIe payload + protocol, but no host driver cost at this layer.
    assert 1.0 < host - internal < 5.0


def test_matcher_read_costs_more_cpu_not_less():
    sim, device = make_device()
    plain = run(sim, device.internal_read([0]))
    matched = run(sim, device.internal_read([1], use_matcher=True))
    assert matched > plain


# ---------------------------------------------------------------- striping
def test_large_read_uses_all_channels():
    sim, device = make_device()
    pages = list(range(1024))  # 4 MiB
    run(sim, device.internal_read(pages))
    busy_channels = sum(1 for ch in device.nand.channels if ch.reads > 0)
    assert busy_channels == device.config.channels


def test_large_read_bandwidth_beats_host_interface():
    sim, device = make_device()
    total = 64 * MIB
    pages_per_req = MIB // 4096

    def worker(start):
        for request in range(start, total // MIB, 16):
            base = request * pages_per_req
            yield from device.internal_read(list(range(base, base + pages_per_req)))

    fibers = [sim.process(worker(i)) for i in range(16)]
    sim.run(all_of(sim, fibers))
    bandwidth = total / sim.now_s / 1e9
    assert bandwidth > 1.3 * device.config.pcie_bytes_per_sec / 1e9


def test_empty_read_is_free():
    sim, device = make_device()
    assert run(sim, device.internal_read([])) == 0.0


# ------------------------------------------------------------------ writes
def test_internal_write_programs_pages():
    sim, device = make_device()
    run(sim, device.internal_write(list(range(8))))
    assert device.ftl.host_pages_written == 8
    assert device.controller.stats.write_commands == 1


def test_written_pages_read_back_from_mapped_location():
    sim, device = make_device()
    run(sim, device.internal_write([5]))
    addr = device.ftl.translate(5)
    latency = run(sim, device.internal_read([5]))
    assert latency > 0
    assert device.nand[addr.channel].reads >= 1


# ------------------------------------------------------------------ content
def test_store_and_load_page_content():
    sim, device = make_device()
    device.store_pages([9], b"hello")
    assert device.load_page(9).startswith(b"hello")


def test_unwritten_page_reads_zeroes():
    sim, device = make_device()
    data = device.load_page(1234)
    assert data == b"\x00" * device.config.logical_page_bytes


def test_oversized_page_rejected():
    sim, device = make_device()
    with pytest.raises(ValueError):
        device.store_pages([0], b"x" * (device.config.logical_page_bytes + 1))


def test_a_whole_page_bytes_is_stored_and_loaded_without_a_copy():
    sim, device = make_device()
    page = device.config.logical_page_bytes
    payload = bytes([7]) * page
    device.store_pages([5], payload)
    assert device.load_page(5) is payload
    # Every LPN without content answers with the device's one zero page.
    assert device.load_page(6) is device.load_page(7)


def test_stored_pages_add_no_gc_tracked_object():
    sim, device = make_device()
    page = device.config.logical_page_bytes
    device.store_pages(range(300), bytes(300 * page))
    device.store_pages([7], bytearray(page))
    assert not gc.is_tracked(device._buffers)
    assert not gc.is_tracked(device._indexes)


def test_a_mutable_buffer_is_copied_once_at_store_time():
    sim, device = make_device()
    page = device.config.logical_page_bytes
    buf = bytearray(b"a" * page + b"b" * page)
    device.store_pages([0, 1], buf)
    buf[:] = b"z" * len(buf)
    assert device.load_page(0) == b"a" * page
    assert device.load_page(1) == b"b" * page


def test_trimmed_and_overwritten_pages_release_their_buffer():
    """A buffer lives as long as any of its pages is stored."""
    sim, device = make_device()
    page = device.config.logical_page_bytes
    buf = bytes(range(256)) * (3 * page // 256)
    unpinned = sys.getrefcount(buf)
    device.store_pages([10, 11, 12], buf)
    device.discard_pages([11])
    assert device.load_page(11) == b"\x00" * page
    assert device.load_page(10) == buf[:page]
    assert device.load_page(12) == buf[2 * page:]
    assert sys.getrefcount(buf) > unpinned
    device.discard_pages([10])
    device.store_pages([12], b"new")
    assert device.load_page(12) == b"new"
    assert sys.getrefcount(buf) == unpinned


def test_discard_removes_content_and_mapping():
    sim, device = make_device()
    device.store_pages([3], b"abc")
    run(sim, device.internal_write([3]))
    device.discard_pages([3])
    assert device.load_page(3) == b"\x00" * device.config.logical_page_bytes
    assert not device.ftl.is_mapped(3)


# ---------------------------------------------------------------- compute
def test_device_compute_occupies_core():
    sim, device = make_device()
    elapsed = run(sim, device.controller.device_compute(50.0))
    assert abs(elapsed - 50.0) < 0.01


def test_matcher_for_lpn_maps_to_placement_channel():
    sim, device = make_device()
    matcher = device.matcher_for_lpn(0)
    channel, _ = device.controller.placement(0)
    assert matcher.channel_index == channel
