"""Namespace, inodes and page allocation."""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ssd.device import SSDDevice

__all__ = ["FileSystem", "Inode", "FsError"]

PageContentFn = Callable[[int], bytes]


class FsError(Exception):
    """Filesystem-level failure (missing file, duplicate create, bad range)."""


class Inode:
    """One file: size, extents of logical pages, and an optional content model.

    ``content_fn`` (synthetic files) maps a *file-relative* page index to that
    page's bytes; ``analytic_profile`` optionally records per-key match
    probabilities so the pattern matcher can run in analytic mode against
    this file.
    """

    def __init__(
        self,
        path: str,
        page_size: int,
        content_fn: Optional[PageContentFn] = None,
        analytic_profile: Optional[Dict[bytes, float]] = None,
        synthetic: bool = False,
    ):
        self.path = path
        self.page_size = page_size
        self.size = 0
        self.extents: List[Tuple[int, int]] = []  # (start_lpn, page_count)
        # Running page count at each extent's end: _ends[i] is the first
        # file page past extents[i].  Kept in step by add_extents alone.
        self._ends: List[int] = []
        self.content_fn = content_fn
        self.analytic_profile = analytic_profile or {}
        self._synthetic = synthetic

    @property
    def synthetic(self) -> bool:
        return (self._synthetic or self.content_fn is not None
                or bool(self.analytic_profile))

    @property
    def num_pages(self) -> int:
        return (self.size + self.page_size - 1) // self.page_size

    def add_extents(self, extents: List[Tuple[int, int]]) -> None:
        """Append allocated extents, as given: adjacent ones stay separate,
        because ``FileSystem.delete`` hands them back to the LIFO free list
        one by one and later placement depends on that order."""
        ends = self._ends
        total = ends[-1] if ends else 0
        for extent in extents:
            total += extent[1]
            ends.append(total)
        self.extents.extend(extents)

    def lpn_of(self, file_page: int) -> int:
        """Logical page number backing file-relative page ``file_page``."""
        ends = self._ends
        if file_page < 0 or not ends or file_page >= ends[-1]:
            raise FsError("%s: page %d outside the file's %d allocated pages"
                          % (self.path, file_page, ends[-1] if ends else 0))
        index = bisect_right(ends, file_page)
        start, count = self.extents[index]
        return start + file_page - (ends[index] - count)

    def lpns(self, offset: int, length: int) -> Sequence[int]:
        """Logical pages covering the byte range [offset, offset+length).

        A span inside one extent is a ``range`` — the shape the controller
        stripes arithmetically, with no per-page list — and one that
        crosses extents is a list.
        """
        if offset < 0 or length < 0:
            raise FsError("negative offset/length")
        if length == 0:
            return []
        if offset + length > self.size:
            raise FsError(
                "%s: range [%d, %d) beyond size %d"
                % (self.path, offset, offset + length, self.size)
            )
        page = offset // self.page_size
        stop = (offset + length - 1) // self.page_size + 1
        ends = self._ends
        extents = self.extents
        index = bisect_right(ends, page)
        end = ends[index]
        if stop <= end:
            start, count = extents[index]
            base = start - (end - count)
            return range(base + page, base + stop)
        out: List[int] = []
        while page < stop:
            start, count = extents[index]
            end = ends[index]
            base = start - (end - count)  # LPN of file page p is base + p
            upto = end if end < stop else stop
            out.extend(range(base + page, base + upto))
            page = upto
            index += 1
        return out

    def all_lpns(self) -> List[int]:
        return [start + i for start, count in self.extents for i in range(count)]


class FileSystem:
    """Flat-namespace filesystem over one :class:`SSDDevice`."""

    def __init__(self, device: SSDDevice):
        self.device = device
        self.page_size = device.config.logical_page_bytes
        self._files: Dict[str, Inode] = {}
        self._next_lpn = 0
        self._free: List[Tuple[int, int]] = []  # reclaimed extents

    # -------------------------------------------------------------- namespace
    def exists(self, path: str) -> bool:
        return path in self._files

    def listdir(self) -> List[str]:
        return sorted(self._files)

    def lookup(self, path: str) -> Inode:
        try:
            return self._files[path]
        except KeyError:
            raise FsError("no such file: %s" % path) from None

    def delete(self, path: str) -> None:
        inode = self.lookup(path)
        del self._files[path]
        lpns = inode.all_lpns()
        self.device.discard_pages(lpns)
        self._free.extend(inode.extents)

    # ------------------------------------------------------------- allocation
    def _allocate(self, pages: int) -> List[Tuple[int, int]]:
        extents: List[Tuple[int, int]] = []
        remaining = pages
        while remaining > 0 and self._free:
            start, count = self._free.pop()
            take = min(count, remaining)
            extents.append((start, take))
            if take < count:
                self._free.append((start + take, count - take))
            remaining -= take
        if remaining > 0:
            extents.append((self._next_lpn, remaining))
            self._next_lpn += remaining
        return extents

    # ---------------------------------------------------------------- create
    def install(self, path: str, data: bytes) -> Inode:
        """Create a file with real content, without simulated time.

        This is the dataset-bootstrap path (like preparing a testbed before
        the measured run).  Timed writes go through
        :meth:`repro.fs.file.FileHandle.write`.  The file's pages reference
        ``data`` itself when it is a ``bytes`` (no per-page copy), so a blob
        installed on several devices is held once.
        """
        if path in self._files:
            raise FsError("file exists: %s" % path)
        inode = Inode(path, self.page_size)
        inode.size = len(data)
        pages = inode.num_pages
        inode.add_extents(self._allocate(pages))
        self.device.store_pages(inode.all_lpns(), data)
        self._files[path] = inode
        return inode

    def create_empty(self, path: str) -> Inode:
        """Create a zero-length file for subsequent timed writes."""
        if path in self._files:
            raise FsError("file exists: %s" % path)
        inode = Inode(path, self.page_size)
        self._files[path] = inode
        return inode

    def install_synthetic(
        self,
        path: str,
        size: int,
        content_fn: Optional[PageContentFn] = None,
        analytic_profile: Optional[Dict[bytes, float]] = None,
    ) -> Inode:
        """Create a paper-scale file whose pages are generated, not stored.

        ``content_fn(page_index) -> bytes`` materializes a page on demand
        (exact semantics at any scale); ``analytic_profile`` maps matcher keys
        to per-page match probabilities for analytic-mode matching.
        """
        if path in self._files:
            raise FsError("file exists: %s" % path)
        if size <= 0:
            raise FsError("synthetic file needs a positive size")
        inode = Inode(path, self.page_size, content_fn=content_fn,
                      analytic_profile=analytic_profile, synthetic=True)
        inode.size = size
        inode.add_extents(self._allocate(inode.num_pages))
        self._files[path] = inode
        return inode

    def grow(self, inode: Inode, new_size: int) -> None:
        """Extend a file's allocation to cover ``new_size`` bytes."""
        if new_size < inode.size:
            raise FsError("grow cannot shrink %s" % inode.path)
        needed = (new_size + self.page_size - 1) // self.page_size - inode.num_pages
        if needed > 0:
            inode.add_extents(self._allocate(needed))
        inode.size = new_size

    # ----------------------------------------------------------------- content
    def page_content(self, inode: Inode, file_page: int) -> bytes:
        """Bytes of one file page (store-backed or generated)."""
        if inode.content_fn is not None:
            data = inode.content_fn(file_page)
            if len(data) > self.page_size:
                raise FsError("content_fn produced an oversized page")
            return data
        return self.device.load_page(inode.lpn_of(file_page))

    def read_range(self, inode: Inode, offset: int, length: int) -> bytes:
        """Assemble the bytes of [offset, offset+length) (no timing)."""
        if length == 0:
            return b""
        first = offset // self.page_size
        last = (offset + length - 1) // self.page_size
        parts = [self.page_content(inode, i) for i in range(first, last + 1)]
        blob = b"".join(
            part.ljust(self.page_size, b"\x00") for part in parts
        )
        start = offset - first * self.page_size
        return blob[start:start + length]
