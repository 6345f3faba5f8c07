"""FTL: mapping consistency, GC, wear leveling, write amplification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import OutOfSpaceError
from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.ftl import FTL, PhysAddr
from repro.ssd.nand import NandArray


def make_ftl(channels=2, dies=1, blocks=4, pages=4):
    sim = Simulator()
    config = SSDConfig(
        channels=channels, dies_per_channel=dies,
        blocks_per_die=blocks, pages_per_block=pages,
    )
    nand = NandArray(sim, config)
    return sim, config, FTL(sim, config, nand)


def write(sim, ftl, lpns):
    sim.run(sim.process(ftl.write(list(lpns))))


def test_write_then_translate():
    sim, config, ftl = make_ftl()
    write(sim, ftl, range(8))
    for lpn in range(8):
        addr = ftl.translate(lpn)
        assert isinstance(addr, PhysAddr)
    assert ftl.mapped_pages == 8


def test_unmapped_translate_raises():
    _, _, ftl = make_ftl()
    with pytest.raises(KeyError):
        ftl.translate(5)
    assert not ftl.is_mapped(5)


def test_writes_stripe_across_channels():
    sim, config, ftl = make_ftl(channels=4)
    write(sim, ftl, range(16))
    channels = {ftl.translate(lpn).channel for lpn in range(16)}
    assert channels == {0, 1, 2, 3}


def test_overwrite_moves_and_invalidates():
    sim, config, ftl = make_ftl()
    write(sim, ftl, [7])
    first = ftl.translate(7)
    write(sim, ftl, [7])
    second = ftl.translate(7)
    assert first != second
    assert ftl.host_pages_written == 2


def test_two_lpns_never_share_a_slot():
    sim, config, ftl = make_ftl()
    write(sim, ftl, range(20))
    seen = set()
    for lpn in range(20):
        addr = ftl.translate(lpn)
        assert addr not in seen
        seen.add(addr)


def test_trim_removes_mapping():
    sim, config, ftl = make_ftl()
    write(sim, ftl, [1, 2, 3])
    ftl.trim([2])
    assert not ftl.is_mapped(2)
    assert ftl.is_mapped(1) and ftl.is_mapped(3)


def test_trim_unmapped_is_noop():
    _, _, ftl = make_ftl()
    ftl.trim([42])  # must not raise


def test_flush_programs_partial_pages():
    sim, config, ftl = make_ftl()
    write(sim, ftl, [0])  # one logical page: buffered, not yet programmed
    before = ftl.physical_pages_programmed
    sim.run(sim.process(ftl.flush()))
    assert ftl.physical_pages_programmed == before + 1


def test_gc_reclaims_overwritten_space():
    sim, config, ftl = make_ftl(channels=1, blocks=4, pages=2)
    # Device holds 4 blocks x 2 pages x 4 slots = 32 logical slots per die.
    # Overwrite a small working set repeatedly to force GC.
    for _ in range(12):
        write(sim, ftl, range(6))
    assert ftl.gc_runs > 0
    for lpn in range(6):
        assert ftl.is_mapped(lpn)


def test_write_amplification_grows_under_overwrites():
    sim, config, ftl = make_ftl(channels=1, blocks=4, pages=2)
    # Cold data shares blocks with hot data; GC must relocate the cold
    # slots when reclaiming the dead hot ones.
    write(sim, ftl, range(10))
    for _ in range(15):
        write(sim, ftl, [10, 11])
    assert ftl.relocated_pages > 0
    assert ftl.write_amplification > 1.0
    for lpn in range(10):
        assert ftl.is_mapped(lpn)


def test_out_of_space_when_full_of_live_data():
    sim, config, ftl = make_ftl(channels=1, blocks=3, pages=2)
    capacity = 3 * 2 * config.logical_pages_per_physical  # 24 slots
    with pytest.raises(OutOfSpaceError):
        for start in range(0, capacity * 2, 4):
            write(sim, ftl, range(start, start + 4))


def test_awaited_process_failure_surfaces_original_exception():
    """Regression: run(process) must raise OutOfSpaceError, not a masked
    SimulationError."""
    sim, config, ftl = make_ftl(channels=1, blocks=2, pages=1)
    try:
        for start in range(0, 64, 4):
            write(sim, ftl, range(start, start + 4))
    except OutOfSpaceError:
        return
    pytest.fail("expected OutOfSpaceError")


def test_wear_leveling_spreads_erases():
    sim, config, ftl = make_ftl(channels=1, blocks=6, pages=2)
    for _ in range(40):
        write(sim, ftl, range(6))
    counts = [c for c in ftl.erase_counts() if c > 0]
    assert len(counts) >= 3  # erases spread over several blocks
    assert max(counts) - min(counts) <= max(2, max(counts) // 2)


def test_negative_lpn_rejected():
    sim, _, ftl = make_ftl()
    proc = sim.process(ftl.write([-1]))
    proc.defused = True
    sim.run()
    assert isinstance(proc.exception, ValueError)


class _Model:
    """Reference model: the FTL must agree with a plain dict."""

    def __init__(self):
        self.live = set()


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["write", "trim"]), st.integers(0, 15)),
    min_size=1, max_size=60,
))
def test_property_mapping_matches_reference(operations):
    sim, config, ftl = make_ftl(channels=2, dies=2, blocks=4, pages=2)
    model = _Model()
    for op, lpn in operations:
        if op == "write":
            write(sim, ftl, [lpn])
            model.live.add(lpn)
        else:
            ftl.trim([lpn])
            model.live.discard(lpn)
    for lpn in range(16):
        assert ftl.is_mapped(lpn) == (lpn in model.live)
    # No two live LPNs share a physical slot.
    addresses = [ftl.translate(lpn) for lpn in sorted(model.live)]
    assert len(set(addresses)) == len(addresses)
