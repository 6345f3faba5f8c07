"""SSDConfig validation and derived quantities."""

import dataclasses

import pytest

from repro.sim.units import KIB
from repro.ssd.config import SSDConfig


def test_defaults_validate():
    SSDConfig().validate()


def test_logical_pages_per_physical():
    config = SSDConfig()
    assert config.logical_pages_per_physical == 4


def test_internal_bandwidth_exceeds_host_interface():
    config = SSDConfig()
    # The Fig. 7 headline: >30% more internal bandwidth than PCIe Gen3 x4.
    assert config.internal_bytes_per_sec > 1.3 * config.pcie_bytes_per_sec


def test_stripe_is_physical_page():
    config = SSDConfig()
    assert config.stripe_bytes == config.physical_page_bytes == 16 * KIB


def test_misaligned_pages_rejected():
    config = SSDConfig(logical_page_bytes=4096, physical_page_bytes=10000)
    with pytest.raises(ValueError):
        config.validate()


def test_zero_channels_rejected():
    with pytest.raises(ValueError):
        SSDConfig(channels=0).validate()


def test_overprovision_bounds():
    with pytest.raises(ValueError):
        SSDConfig(overprovision_ratio=0.9).validate()


def test_a_field_is_what_a_caller_sets():
    # The paper's calibration (Tables I-III, the matcher IP) is class
    # constants, readable through an instance but not settable per device.
    assert {field.name for field in dataclasses.fields(SSDConfig)} == {
        "channels", "dies_per_channel", "logical_page_bytes",
        "physical_page_bytes", "pages_per_block", "blocks_per_die",
        "overprovision_ratio", "read_retry_limit", "read_retry_backoff_us",
        "read_cache_bytes", "read_coalesce_limit", "sim_fast_path",
        "serve_app_slots", "serve_dram_budget_bytes",
    }
    with pytest.raises(TypeError):
        SSDConfig(nand_read_us=1.0)


def test_total_logical_pages_positive_and_overprovisioned():
    config = SSDConfig()
    raw = (config.channels * config.dies_per_channel * config.blocks_per_die
           * config.pages_per_block * config.logical_pages_per_physical)
    assert 0 < config.total_logical_pages < raw
