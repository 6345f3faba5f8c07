"""FTL block life-cycle: a block owns slot lists only while it holds data.

Free ⇔ no slot state: a fresh device holds none, ``_allocate_block`` hands a
block its lists, a GC erase drops them.  The last test pins the wear and
amplification numbers of the ``dev_write`` benchmark shape to the values the
eager per-page allocation produced, so lazy state cannot change GC behaviour.
"""

import random

from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.ftl import FTL
from repro.ssd.nand import NandArray
from tests.ssd.test_ftl_gc_properties import check_invariants, make_ftl, write


def blocks_with_slots(ftl):
    return {(die.channel, die.die, block.index)
            for die in ftl._dies for block in die.blocks if block.slots}


def test_fresh_ftl_holds_no_slot_lists():
    _, config, ftl = make_ftl()
    assert blocks_with_slots(ftl) == set()
    for die in ftl._dies:
        assert len(die.free) == config.blocks_per_die
        assert all(block.slots == () for block in die.blocks)


def test_default_device_holds_no_slot_lists():
    # The paper-scale geometry (1M physical pages): nothing per page up front.
    sim = Simulator()
    config = SSDConfig()
    ftl = FTL(sim, config, NandArray(sim, config))
    assert blocks_with_slots(ftl) == set()


def test_only_written_blocks_own_slots():
    sim, config, ftl = make_ftl()
    count = 10
    write(sim, ftl, range(count))
    written = {(addr.channel, addr.die, addr.block)
               for addr in map(ftl.translate, range(count))}
    assert blocks_with_slots(ftl) == written
    # 10 pages over 2 dies fit in each die's first block.
    assert len(written) == 2
    for die in ftl._dies:
        assert len(die.free) == config.blocks_per_die - 1
        for block in die.blocks:
            if block.slots:
                assert block not in die.free
                assert len(block.slots) == config.pages_per_block
                assert all(len(page) == config.logical_pages_per_physical
                           for page in block.slots)
            else:
                assert block in die.free


def churn_until_gc(sim, ftl, config):
    capacity = (config.channels * config.dies_per_channel
                * config.blocks_per_die * config.pages_per_block
                * config.logical_pages_per_physical)
    working_set = capacity // 2
    write(sim, ftl, range(working_set))
    rng = random.Random(7)
    while ftl.gc_runs == 0:
        write(sim, ftl, [rng.randrange(working_set) for _ in range(16)])
    return working_set


def test_erased_victim_drops_its_slots():
    sim, config, ftl = make_ftl()
    churn_until_gc(sim, ftl, config)
    erased = [block for die in ftl._dies for block in die.blocks
              if block.erase_count and block in die.free]
    assert erased, "GC ran but no erased block sits in the free list"
    for block in erased:
        assert block.slots == ()
        assert block.valid == 0
    # Free-list membership and slot ownership stay one fact under churn.
    for die in ftl._dies:
        for block in die.blocks:
            assert bool(block.slots) == (block not in die.free)


def test_reallocated_block_gets_clean_slots():
    sim, config, ftl = make_ftl(channels=1, blocks=4)
    working_set = churn_until_gc(sim, ftl, config)
    rng = random.Random(11)
    die = ftl._dies[0]

    def reused():
        return [block for block in die.blocks
                if block.erase_count and block.slots]

    while not reused():
        write(sim, ftl, [rng.randrange(working_set) for _ in range(8)])
    mapped = {(addr.block, addr.page, addr.slot): lpn
              for lpn, addr in ftl._map.items()}
    for block in reused():
        assert len(block.slots) == config.pages_per_block
        for page_no, page in enumerate(block.slots):
            for slot, lpn in enumerate(page):
                # Nothing from before the erase: a slot is empty or holds
                # exactly the lpn the map says lives there now.
                assert lpn is None or mapped[(block.index, page_no, slot)] == lpn


def test_dev_write_shape_wear_matches_eager_allocation():
    """benchmarks/e2e ``dev_write`` geometry: half-full small device, random
    single-page overwrites.  Pinned at the parent commit (eager slots)."""
    sim, config, ftl = make_ftl(channels=4, dies=2, blocks=16, pages=64)
    file_pages = 16_384
    for first in range(0, file_pages, 64):
        write(sim, ftl, range(first, first + 64))
    rng = random.Random(2016)
    for _ in range(25_000):
        write(sim, ftl, [rng.randrange(file_pages)])
    sim.run(sim.process(ftl.flush()))

    check_invariants(ftl, config, set(range(file_pages)))
    assert ftl.gc_runs == 80
    assert ftl.relocated_pages == 6978
    assert ftl.write_amplification == 1.1686158901991108
    assert sim.now == 6737140636
    # One digit per block, one string per die, in (channel, die) order.
    counts = ftl.erase_counts()
    per_die = ["".join(map(str, counts[first:first + config.blocks_per_die]))
               for first in range(0, len(counts), config.blocks_per_die)]
    assert per_die == [
        "1111111110100000", "1111111111000000", "1111111111000000",
        "1111111111000000", "1111111111000000", "1111111111000000",
        "1111111110100000", "1111111111000000",
    ]
