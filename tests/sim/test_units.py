"""Unit-conversion helpers."""

import pytest

from repro.sim.units import (
    GIB,
    KIB,
    MIB,
    TransferTimes,
    ms_to_ns,
    ns_to_s,
    ns_to_us,
    s_to_ns,
    transfer_ns,
    us_to_ns,
)


def test_byte_sizes():
    assert KIB == 1024
    assert MIB == 1024 ** 2
    assert GIB == 1024 ** 3


def test_time_conversions_roundtrip():
    assert us_to_ns(1.5) == 1500
    assert ms_to_ns(2) == 2_000_000
    assert s_to_ns(0.25) == 250_000_000
    assert ns_to_us(1500) == 1.5
    assert ns_to_s(1_000_000_000) == 1.0


def test_transfer_time():
    assert transfer_ns(1_000_000_000, 1e9) == 1_000_000_000  # 1 GB at 1 GB/s
    assert transfer_ns(0, 1e9) == 0
    assert transfer_ns(1, 1e12) == 1  # rounds up to at least 1 ns


def test_transfer_requires_positive_rate():
    with pytest.raises(ValueError):
        transfer_ns(100, 0)


def test_transfer_times_equal_transfer_ns_and_keep_a_bounded_table():
    times = TransferTimes(275e6)
    sizes = range(1, TransferTimes.MAX_SIZES + 11)
    assert [times[size] for size in sizes] == [transfer_ns(size, 275e6) for size in sizes]
    assert times[4096] == transfer_ns(4096, 275e6)
    assert len(times) == TransferTimes.MAX_SIZES
    with pytest.raises(ValueError):
        TransferTimes(0)[100]
