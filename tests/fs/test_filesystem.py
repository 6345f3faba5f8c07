"""Filesystem: namespace, extents, synthetic files, content assembly."""

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.filesystem import FsError
from repro.host.platform import System


def test_install_and_lookup(system):
    inode = system.fs.install("/a.txt", b"hello world")
    assert system.fs.exists("/a.txt")
    assert system.fs.lookup("/a.txt") is inode
    assert inode.size == 11
    assert inode.num_pages == 1


def test_an_installed_short_last_page_reads_back_short(system):
    data = bytes(range(251)) * 20  # 5020 bytes: one page and 924 bytes
    inode = system.fs.install("/short", data)
    assert system.fs.page_content(inode, 0) == data[:4096]
    assert system.fs.page_content(inode, 1) == data[4096:]
    assert system.fs.read_range(inode, 0, inode.size) == data


def test_lookup_missing_raises(system):
    with pytest.raises(FsError):
        system.fs.lookup("/missing")


def test_duplicate_create_rejected(system):
    system.fs.install("/dup", b"x")
    with pytest.raises(FsError):
        system.fs.install("/dup", b"y")


def test_listdir_sorted(system):
    for name in ("/b", "/a", "/c"):
        system.fs.install(name, b"")
    assert system.fs.listdir() == ["/a", "/b", "/c"]


def test_multi_page_content_roundtrip(system):
    payload = bytes(range(256)) * 64  # 16 KiB = 4 pages
    inode = system.fs.install("/big", payload)
    assert inode.num_pages == 4
    assert system.fs.read_range(inode, 0, len(payload)) == payload


def test_read_range_subsets(system):
    payload = b"0123456789" * 1000
    inode = system.fs.install("/r", payload)
    assert system.fs.read_range(inode, 0, 10) == payload[:10]
    assert system.fs.read_range(inode, 4090, 20) == payload[4090:4110]
    assert system.fs.read_range(inode, len(payload) - 3, 3) == payload[-3:]
    assert system.fs.read_range(inode, 5, 0) == b""


def test_lpns_cover_byte_ranges(system):
    inode = system.fs.install("/l", b"x" * 10000)  # 3 pages
    assert len(inode.lpns(0, 10000)) == 3
    assert len(inode.lpns(0, 4096)) == 1
    assert len(inode.lpns(4095, 2)) == 2
    assert inode.lpns(0, 0) == []


def test_lpns_beyond_eof_rejected(system):
    inode = system.fs.install("/e", b"x" * 100)
    with pytest.raises(FsError):
        inode.lpns(0, 101)
    with pytest.raises(FsError):
        inode.lpns(-1, 10)


def test_lpn_of_rejects_pages_outside_the_file(system):
    inode = system.fs.install("/one", b"x" * 8192)  # one extent, 2 pages
    assert len(inode.extents) == 1
    with pytest.raises(FsError):
        inode.lpn_of(-1)
    with pytest.raises(FsError):
        inode.lpn_of(2)
    with pytest.raises(FsError):
        system.fs.page_content(inode, -1)
    assert inode.lpn_of(1) == inode.extents[0][0] + 1


def test_delete_frees_and_reuses_extents(system):
    system.fs.install("/victim", b"x" * 8192)
    first_lpns = system.fs.lookup("/victim").all_lpns()
    system.fs.delete("/victim")
    assert not system.fs.exists("/victim")
    inode = system.fs.install("/next", b"y" * 8192)
    assert set(inode.all_lpns()) & set(first_lpns)


def test_delete_clears_device_content(system):
    inode = system.fs.install("/wipe", b"secret!!")
    lpn = inode.all_lpns()[0]
    system.fs.delete("/wipe")
    assert system.fs.device.load_page(lpn)[:8] != b"secret!!"


def test_synthetic_file_size_without_content(system):
    inode = system.fs.install_synthetic("/huge", 1 << 32)  # 4 GiB
    assert inode.size == 1 << 32
    assert inode.synthetic
    assert inode.num_pages == (1 << 32) // 4096


def test_synthetic_needs_positive_size(system):
    with pytest.raises(FsError):
        system.fs.install_synthetic("/zero", 0)


def test_synthetic_content_fn(system):
    def page_fn(index):
        return ("page-%d" % index).encode().ljust(4096, b".")

    inode = system.fs.install_synthetic("/gen", 3 * 4096, content_fn=page_fn)
    assert system.fs.page_content(inode, 2).startswith(b"page-2")
    assert system.fs.read_range(inode, 4096, 6) == b"page-1"


def test_synthetic_oversized_page_from_content_fn(system):
    inode = system.fs.install_synthetic("/bad", 4096, content_fn=lambda i: b"x" * 5000)
    with pytest.raises(FsError):
        system.fs.page_content(inode, 0)


def test_analytic_profile_recorded(system):
    inode = system.fs.install_synthetic(
        "/p", 4096, analytic_profile={b"key": 0.25}
    )
    assert inode.analytic_profile == {b"key": 0.25}
    assert inode.synthetic


def test_grow(system):
    inode = system.fs.create_empty("/grow")
    assert inode.size == 0
    system.fs.grow(inode, 10000)
    assert inode.size == 10000
    assert inode.num_pages == 3
    with pytest.raises(FsError):
        system.fs.grow(inode, 5)


@settings(max_examples=30, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=20000),
    offset_frac=st.floats(0.0, 1.0),
    length_frac=st.floats(0.0, 1.0),
)
def test_property_read_range_matches_python_slicing(payload, offset_frac, length_frac):
    system = System()
    inode = system.fs.install("/prop", payload)
    offset = int(offset_frac * (len(payload) - 1))
    length = int(length_frac * (len(payload) - offset))
    assert system.fs.read_range(inode, offset, length) == payload[offset:offset + length]


# ------------------------------------------------ extent index vs. linear walk
def _walk_lpn(extents, file_page):
    """The linear extent walk the bisected index replaced."""
    remaining = file_page
    for start, count in extents:
        if remaining < count:
            return start + remaining
        remaining -= count
    raise FsError("page %d beyond EOF" % file_page)


class _ReferenceAllocator:
    """The allocator's extent bookkeeping, restated: LIFO free list, no
    coalescing, fresh LPNs past the high-water mark."""

    def __init__(self):
        self.next_lpn = 0
        self.free = []
        self.files = {}

    def allocate(self, pages):
        extents = []
        while pages > 0 and self.free:
            start, count = self.free.pop()
            take = min(count, pages)
            extents.append((start, take))
            if take < count:
                self.free.append((start + take, count - take))
            pages -= take
        if pages > 0:
            extents.append((self.next_lpn, pages))
            self.next_lpn += pages
        return extents


def _random_layout(seed):
    """Drive one FileSystem and the reference through the same seeded mix of
    install, install_synthetic, grow in random chunks and delete."""
    rng = random.Random(seed)
    system = System()
    fs, ref = system.fs, _ReferenceAllocator()
    page = fs.page_size
    for step in range(40):
        live = sorted(ref.files)
        action = rng.random()
        if live and action < 0.25:
            path = rng.choice(live)
            fs.delete(path)
            ref.free.extend(ref.files.pop(path))
            continue
        path = "/f%d" % step
        if action < 0.45:
            pages = rng.randint(1, 6)
            fs.install(path, b"d" * (pages * page - rng.randrange(page)))
            ref.files[path] = ref.allocate(pages)
        elif action < 0.65:
            pages = rng.randint(1, 40)
            fs.install_synthetic(path, pages * page)
            ref.files[path] = ref.allocate(pages)
        else:
            inode = fs.create_empty(path)
            ref.files[path] = []
            for _ in range(rng.randint(1, 8)):
                before = inode.num_pages
                fs.grow(inode, inode.size + rng.randint(1, 9 * page))
                ref.files[path] += ref.allocate(inode.num_pages - before)
    return fs, ref


@pytest.mark.parametrize("seed", range(12))
def test_extent_index_matches_the_linear_walk(seed):
    fs, ref = _random_layout(seed)
    assert ref.files and fs.listdir() == sorted(ref.files)
    page = fs.page_size
    fragmented = 0
    spans = {False: 0, True: 0}
    for path, extents in sorted(ref.files.items()):
        inode = fs.lookup(path)
        # Never coalesced: the extents are exactly what the allocator handed out.
        assert inode.extents == extents
        running, ends = 0, []
        for _start, count in extents:
            running += count
            ends.append(running)
        assert inode._ends == ends
        fragmented += len(extents) > 1
        pages = inode.num_pages
        assert pages == running
        for file_page in range(pages):
            assert inode.lpn_of(file_page) == _walk_lpn(extents, file_page)
        for bad in (-1, pages):
            with pytest.raises(FsError):
                inode.lpn_of(bad)
        boundaries = [0] + ends
        for i, first in enumerate(boundaries):
            for last in boundaries[i + 1:]:
                for offset, length in (
                        (first * page, (last - first) * page),
                        (first * page + 1, (last - first) * page - 1),
                        (first * page, (last - first) * page + 1)):
                    length = min(length, inode.size - offset)
                    if length <= 0:
                        continue
                    first_page = offset // page
                    last_page = (offset + length - 1) // page
                    expected = [_walk_lpn(extents, p)
                                for p in range(first_page, last_page + 1)]
                    span = inode.lpns(offset, length)
                    assert list(span) == expected
                    # One extent: the span is a range (what the controller
                    # stripes arithmetically); across extents, a list.
                    one_extent = (bisect_right(ends, first_page)
                                  == bisect_right(ends, last_page))
                    assert isinstance(span, range) == one_extent
                    spans[one_extent] += 1
    assert fragmented, "layout never reused a freed extent"
    assert all(spans.values()), spans
