"""A read inside one extent reaches the controller as one span.

``Inode.lpns`` returns a ``range`` for such a read, and neither ``HostIO``
nor ``SSDDevice`` copies it, so the controller's arithmetic stripe path
serves every scan of a synthetic or single-extent file.  That path must be
the general one, only cheaper: the same stripes in the same order, the same
channel commands, counters, events and end time as the same pages passed
as a list.
"""

import random

import pytest

from repro.host.platform import System
from repro.ssd.config import SSDConfig
from repro.ssd.controller import ReadStats

PAGE = 4096
#: (offset, length): aligned multi-stripe, unaligned edges, one page, and a
#: span whose stripes wrap every channel several times.
SPANS = [(0, 256 * PAGE), (3 * PAGE + 5, 50 * PAGE), (17 * PAGE, PAGE),
         (1000 * PAGE, 700 * PAGE + 123)]
KINDS = ["host", "internal", "matcher"]


def _read(kind, offset, length, as_list):
    """Read ``[offset, offset+length)`` of a synthetic file on a fresh
    system: (stripes, batches, counters, end ns, events)."""
    system = System()
    inode = system.fs.install_synthetic("/scan.dat", 16 << 20)
    if as_list:
        spans = inode.lpns
        inode.lpns = lambda off, size: list(spans(off, size))
    handle = (system.open_host("/scan.dat") if kind == "host"
              else system.open_internal("/scan.dat",
                                        use_matcher=kind == "matcher"))
    controller = system.device.controller
    seen = []
    group, coalesce = controller._group_stripes, controller._coalesce

    def grouping(lpns):
        seen.append(group(lpns))
        return seen[-1]

    def coalescing(stripes, use_matcher):
        seen.append(coalesce(stripes, use_matcher))
        return seen[-1]

    controller._group_stripes = grouping
    controller._coalesce = coalescing
    pages = system.run_fiber(handle.read_timing_only(offset, length))
    stripes, batches = seen
    counters = {name: getattr(controller.stats, name)
                for name in ReadStats.FIELDS}
    return (pages, stripes, batches, counters, system.sim.now,
            system.sim.events_processed)


def _plain(stripes):
    return [(s.channel, s.physical, list(s.lpns)) for s in stripes]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("offset,length", SPANS)
def test_a_span_reads_exactly_as_its_pages_listed(kind, offset, length):
    span = _read(kind, offset, length, as_list=False)
    listed = _read(kind, offset, length, as_list=True)
    pages, stripes, batches, counters, end_ns, events = span
    assert pages == (offset + length - 1) // PAGE - offset // PAGE + 1
    assert _plain(stripes) == _plain(listed[1])
    assert ([_plain(batch) for batch in batches]
            == [_plain(batch) for batch in listed[2]])
    assert (pages, counters, end_ns, events) == (
        listed[0], listed[3], listed[4], listed[5])
    assert counters["logical_pages_read"] == pages


@pytest.mark.parametrize("kind", KINDS)
def test_a_file_read_takes_the_arithmetic_path(kind):
    """The range survives every layer down to the stripes: the arithmetic
    path cannot silently become dead code again."""
    _pages, stripes, batches, *_ = _read(kind, *SPANS[0], as_list=False)
    assert len(stripes) > 1
    assert all(type(stripe.lpns) is range for stripe in stripes)
    # ... and _coalesce's chunk path: matcher reads never coalesce.
    assert (len(batches) < len(stripes)) == (kind != "matcher")
    _pages, stripes, _batches, *_ = _read(kind, *SPANS[0], as_list=True)
    assert all(type(stripe.lpns) is tuple for stripe in stripes)


@pytest.mark.parametrize("channels,page_kib,limit", [
    (16, 16, 8), (3, 8, 2), (5, 4, 3)])
def test_arithmetic_stripes_match_the_dict_path(channels, page_kib, limit):
    """Every ascending span, sized from one page to a few channel sweeps
    and starting anywhere in a physical page: the same stripes and channel
    commands as the per-LPN path."""
    controller = System(ssd_config=SSDConfig(
        channels=channels, physical_page_bytes=page_kib * 1024,
        read_coalesce_limit=limit)).device.controller
    slots = controller.config.logical_pages_per_physical
    rng = random.Random(channels)
    for _ in range(300):
        start = rng.randrange(4 * slots * channels)
        span = range(start, start + rng.randint(2, 3 * slots * channels))
        stripes = controller._group_stripes(span)
        assert all(type(stripe.lpns) is range for stripe in stripes)
        listed = controller._group_stripes(list(span))
        assert _plain(stripes) == _plain(listed)
        assert ([_plain(batch) for batch in
                 controller._coalesce(stripes, False)]
                == [_plain(batch) for batch in
                    controller._coalesce(listed, False)])
