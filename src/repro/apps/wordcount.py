"""Wordcount: the paper's working example (Section III-E, Codes 1-3).

Mapper SSDlets tokenize partitions of a file, a Shuffler routes words by
hash, Reducer SSDlets count them, and the host program collects
(word, count) pairs over host-to-device ports.
"""

from __future__ import annotations

import zlib
from typing import Dict, Generator, List, Tuple

from repro.core import (
    SSD,
    Application,
    DeviceFile,
    SSDLet,
    SSDLetProxy,
    SSDletModule,
    register_ssdlet,
)
from repro.core.errors import PortClosed
from repro.host.platform import System

__all__ = [
    "WORDCOUNT_MODULE",
    "Mapper",
    "Shuffler",
    "Reducer",
    "wordcount_host_program",
    "run_wordcount",
]

WORDCOUNT_MODULE = SSDletModule("wordcount")

WordCount = Tuple[str, int]


def tokenize(data: bytes) -> List[str]:
    """Split a byte chunk into lowercase word tokens."""
    return [
        token
        for token in data.decode("utf-8", errors="replace").lower().split()
        if token
    ]


@register_ssdlet(WORDCOUNT_MODULE, "idMapper")
class Mapper(SSDLet):
    """Reads a byte range of a file and emits its words.

    Args: (file_token, offset, length).

    Split protocol (the usual MapReduce input-split rule): a mapper owns the
    tokens that *start* inside its byte range.  A token straddling the start
    boundary belongs to the previous mapper, so it is skipped; a token
    straddling the end boundary is completed by reading past the range.
    """

    OUT_TYPES = (str,)

    CHUNK = 64 * 1024

    def run(self) -> Generator:
        handle = yield from self.open(self.arg(0))
        offset, length = self.arg(1), self.arg(2)
        rate = self._runtime.config.device_scan_bytes_per_sec_per_core
        size = handle.size
        end = min(offset + length, size)
        if offset >= size or length <= 0:
            return
        skip_first = False
        if offset > 0:
            prev = yield from handle.read(offset - 1, 1)
            skip_first = not prev.isspace()
        carry = b""
        pos = offset
        while pos < end:
            take = min(self.CHUNK, end - pos)
            data = yield from handle.read(pos, take)
            pos += take
            # Tokenizing is software work on the device core.
            yield from self.compute(len(data) / rate * 1e6)
            buf = carry + data
            if pos >= end:
                buf = yield from self._complete_tail(handle, buf, end, size)
                carry = b""
            else:
                buf, carry = self._hold_partial(buf)
            if skip_first:
                buf, skip_first = self._drop_leading_token(buf), False
                if buf is None:  # whole buffer was one partial token
                    buf = b""
            for word in tokenize(buf):
                yield from self.out(0).put(word)

    def _hold_partial(self, buf: bytes):
        """Hold back a trailing partial token until the next chunk arrives."""
        if not buf or buf[-1:].isspace():
            return buf, b""
        cut = self._last_ws(buf)
        if cut < 0:
            return b"", buf
        return buf[:cut + 1], buf[cut + 1:]

    def _complete_tail(self, handle, buf: bytes, end: int, size: int) -> Generator:
        """Read past the range end to finish a token that started inside it."""
        pos = end
        while pos < size and buf and not buf[-1:].isspace():
            extra = yield from handle.read(pos, min(256, size - pos))
            ws = self._first_ws(extra)
            if ws >= 0:
                buf += extra[:ws]
                break
            buf += extra
            pos += len(extra)
        return buf

    @staticmethod
    def _drop_leading_token(buf: bytes):
        ws = Mapper._first_ws(buf)
        if ws < 0:
            return None
        return buf[ws:]

    @staticmethod
    def _first_ws(data: bytes) -> int:
        for i, byte in enumerate(data):
            if bytes((byte,)).isspace():
                return i
        return -1

    @staticmethod
    def _last_ws(data: bytes) -> int:
        for i in range(len(data) - 1, -1, -1):
            if bytes((data[i],)).isspace():
                return i
        return -1


@register_ssdlet(WORDCOUNT_MODULE, "idShuffler")
class Shuffler(SSDLet):
    """Routes words to reducers by hash (two-way by default)."""

    IN_TYPES = (str,)
    OUT_TYPES = (str, str)

    def run(self) -> Generator:
        fanout = self.num_out
        while True:
            try:
                word = yield from self.in_(0).get()
            except PortClosed:
                return
            lane = zlib.crc32(word.encode("utf-8")) % fanout
            yield from self.out(lane).put(word)


@register_ssdlet(WORDCOUNT_MODULE, "idReducer")
class Reducer(SSDLet):
    """Counts words and emits (word, count) pairs at end of stream."""

    IN_TYPES = (str,)
    OUT_TYPES = (WordCount,)

    PER_WORD_US = 0.5  # hash-table update on the device core

    def run(self) -> Generator:
        counts: Dict[str, int] = {}
        while True:
            try:
                word = yield from self.in_(0).get()
            except PortClosed:
                break
            counts[word] = counts.get(word, 0) + 1
            yield from self.compute(self.PER_WORD_US)
        for word in sorted(counts):
            yield from self.out(0).put((word, counts[word]))


def wordcount_host_program(
    system: System,
    input_path: str,
    num_mappers: int = 2,
) -> Generator:
    """Fiber: the host-side program of Code 3; returns {word: count}."""
    ssd = SSD(system)
    counts = yield from ssd.holding(
        WORDCOUNT_MODULE, lambda mid: _wordcount(ssd, mid, input_path, num_mappers))
    return counts


def _wordcount(ssd: SSD, mid: int, input_path: str, num_mappers: int) -> Generator:
    """Fiber: Code 3's application, on the held module ``mid``."""
    system = ssd.system
    app = Application(ssd, "wordcount")
    input_file = DeviceFile(ssd, input_path)
    size = system.fs.lookup(input_path).size
    # Partition the file across mappers at page boundaries so no word is
    # split between two mappers' chunk streams mid-token more than once; the
    # canonical example keeps it simple with line-aligned input.
    share = (size + num_mappers - 1) // num_mappers
    mappers = [
        SSDLetProxy(app, mid, "idMapper", (input_file, i * share, min(share, size - i * share)))
        for i in range(num_mappers)
    ]
    shuffler = SSDLetProxy(app, mid, "idShuffler")
    reducers = [SSDLetProxy(app, mid, "idReducer") for _ in range(2)]

    for mapper in mappers:  # MPSC into the shuffler
        app.connect(mapper.out(0), shuffler.in_(0))
    for lane, reducer in enumerate(reducers):
        app.connect(shuffler.out(lane), reducer.in_(0))
    ports = [app.connectTo(reducer.out(0), WordCount) for reducer in reducers]

    def collect() -> Generator:
        counts: Dict[str, int] = {}
        for port in ports:
            for word, count in (yield from port.drain()):
                counts[word] = counts.get(word, 0) + count
        return counts

    counts = yield from app.run(collect())
    return counts


def run_wordcount(system: System, input_path: str, num_mappers: int = 2) -> Dict[str, int]:
    """Run the full wordcount application to completion; returns the counts."""
    return system.run_fiber(
        wordcount_host_program(system, input_path, num_mappers), name="wordcount-host"
    )
