"""Simple string search: grep vs the hardware pattern matcher (Table V).

Conv: the host greps the log — a readahead pipeline (async reads overlap the
scan) whose throughput is the host Boyer–Moore scan rate, degraded by memory
contention.  Biscuit: a Searcher SSDlet streams the file through the
per-channel matcher IP at near wire speed, refines only the matched pages on
the device CPU, and ships matching lines (exact mode) or match counts
(analytic mode) to the host.

The corpus is a web-log (Section V-C: 7.8 GiB compilation of web logs);
:func:`install_weblog` materializes real log lines at test scale, and
:func:`install_weblog_analytic` declares a paper-scale log with a per-page
keyword-match probability.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional, Sequence, Tuple

from repro.core import SSD, Application, DeviceFile, SSDLet, SSDLetProxy, SSDletModule
from repro.fs.filesystem import Inode
from repro.host.platform import System
from repro.sim.units import MIB

__all__ = [
    "install_weblog",
    "install_weblog_analytic",
    "boyer_moore_count",
    "conv_string_search",
    "searcher_shares",
    "launch_searchers",
    "biscuit_string_search",
    "run_conv_search",
    "run_biscuit_search",
    "PAPER_LOG_BYTES",
    "READ_UNIT",
]

PAPER_LOG_BYTES = int(7.8 * 1024 ** 3)

#: The host arm's read (and count) unit; also what a pulled shard ships.
READ_UNIT = 1 * MIB

STRING_SEARCH_MODULE = SSDletModule("string-search")

_METHODS = ("GET", "POST", "PUT", "HEAD")
_PATHS = ("/index.html", "/api/v1/items", "/static/app.js", "/login", "/search")
_AGENTS = ("Mozilla/5.0", "curl/7.47", "Googlebot/2.1", "sdk-client/3")


def _log_line(rng: random.Random, keyword: Optional[str]) -> str:
    line = "10.%d.%d.%d - - [17/Jan/1995] \"%s %s HTTP/1.1\" %d %d \"%s\"" % (
        rng.randrange(256), rng.randrange(256), rng.randrange(256),
        rng.choice(_METHODS), rng.choice(_PATHS),
        rng.choice((200, 200, 200, 304, 404, 500)),
        rng.randrange(100, 50_000), rng.choice(_AGENTS),
    )
    if keyword is not None:
        cut = rng.randrange(len(line) // 2, len(line))
        line = line[:cut] + " " + keyword + line[cut:]
    return line


def install_weblog(
    system: System,
    path: str,
    size: int,
    keyword: str,
    hit_rate: float = 0.002,
    seed: int = 11,
) -> Tuple[Inode, int]:
    """Write a real web log of ~``size`` bytes; returns (inode, planted hits)."""
    rng = random.Random(seed)
    lines: List[str] = []
    total = 0
    hits = 0
    while total < size:
        plant = rng.random() < hit_rate
        line = _log_line(rng, keyword if plant else None)
        hits += int(plant)
        lines.append(line)
        total += len(line) + 1
    inode = system.fs.install(path, "\n".join(lines).encode() + b"\n")
    return inode, hits


def install_weblog_analytic(
    system: System,
    path: str,
    size: int,
    keyword: str,
    page_match_probability: float = 0.02,
) -> Inode:
    """Declare a paper-scale web log with an analytic match profile."""
    return system.fs.install_synthetic(
        path, size,
        analytic_profile={keyword.encode(): page_match_probability},
    )


def boyer_moore_count(data: bytes, keyword: bytes) -> int:
    """Reference count of keyword occurrences (what grep -c reports per line
    is line-granular; we count occurrences, matching the SSDlet's output)."""
    return data.count(keyword)


# ---------------------------------------------------------------------- Conv
def conv_string_search(
    system: System, path: str, keyword: str, ssd: int = 0,
    begin: int = 0, end: Optional[int] = None,
) -> Generator:
    """Fiber: readahead + Boyer-Moore scan on the host; returns match count.

    Scans bytes ``[begin, end)`` (default: the whole file) of ``path`` on
    SSD ``ssd``, counting inside each :data:`READ_UNIT` it reads.
    """
    handle = system.open_host(path, ssd=ssd)
    exact = not handle.inode.synthetic
    needle = keyword.encode()
    matches = 0

    def scan(_offset: int, take: int, data) -> Generator:
        nonlocal matches
        # Scan the chunk on a host core (memory-bound; degrades under load).
        yield from system.cpu.scan(take)
        if exact:
            matches += boyer_moore_count(data, needle)

    yield from handle.stream(
        begin, handle.size if end is None else end, READ_UNIT, scan, exact)
    return matches


# ------------------------------------------------------------------- Biscuit
class Searcher(SSDLet):
    """SSDlet: stream a byte range through the matcher IP, emit hit count.

    Args: (file_token, keyword, offset, length).  Output: per-range match
    count; matched-page refinement runs in software on the matched pages
    only.
    """

    OUT_TYPES = (int,)

    CHUNK = 2 * MIB

    def run(self) -> Generator:
        handle = yield from self.open(self.arg(0))
        keyword: str = self.arg(1)
        offset: int = self.arg(2)
        length: int = self.arg(3)
        needle = keyword.encode()
        config = self._runtime.config
        device = self._runtime.device
        fs = self._runtime.fs
        inode = handle.inode
        matcher = device.matchers[0]
        matcher.validate_keys([needle])
        end = min(offset + length, handle.size)
        page = fs.page_size
        total_hits = 0
        pos = offset
        while pos < end:
            take = min(self.CHUNK, end - pos)
            # Stream through the matcher IP (wire-speed scan, per-stripe
            # control cost charged by the controller).
            yield from handle.read_timing_only(pos, take)
            first_page = pos // page
            n_pages = (pos + take - 1) // page - first_page + 1
            matched_pages = []
            if inode.analytic_profile:
                _matched, hits = matcher.match_pages_analytic(
                    first_page, n_pages, [needle], inode.analytic_profile,
                    seed=1)
                total_hits += hits
            else:
                for index in range(first_page, first_page + n_pages):
                    data = fs.page_content(inode, index)
                    result = matcher.match_bytes(index, data, [needle])
                    if result.matched:
                        matched_pages.append((index, data))
            # Software refinement of matched pages only (find the lines).
            if matched_pages:
                refine_bytes = len(matched_pages) * page
                yield from self.compute(
                    refine_bytes / config.device_scan_bytes_per_sec_per_core * 1e6
                )
                for _, data in matched_pages:
                    total_hits += data.count(needle)
            pos += take
        yield from self.out(0).put(total_hits)


STRING_SEARCH_MODULE.register("idSearcher", Searcher)


def searcher_shares(size: int, page: int, num_searchers: int) -> List[Tuple[int, int]]:
    """Page-aligned ``(offset, length)`` shares of a ``size``-byte file."""
    share_pages = ((size + page - 1) // page + num_searchers - 1) // num_searchers
    share = share_pages * page
    return [(index * share, min(share, size - index * share))
            for index in range(num_searchers) if index * share < size]


def launch_searchers(
    ssd: SSD, mid: int, app_name: str, path: str, keyword: str,
    ranges: Sequence[Tuple[int, int]],
) -> Generator:
    """Fiber: one Searcher SSDlet per ``(offset, length)`` range of ``path``;
    returns the total match count."""
    app = Application(ssd, app_name)
    token = DeviceFile(ssd, path, use_matcher=True)
    ports = [
        app.connectTo(SSDLetProxy(
            app, mid, "idSearcher", (token, keyword, begin, length)).out(0), int)
        for begin, length in ranges
    ]

    def collect() -> Generator:
        total = 0
        for port in ports:
            count = yield from port.get_opt()
            if count is not None:
                total += count
        return total

    total = yield from app.run(collect())
    return total


def biscuit_string_search(
    system: System, path: str, keyword: str, num_searchers: int = 4
) -> Generator:
    """Fiber: host program offloading the search; returns total match count.

    Several Searcher SSDlets share the file so matcher commands overlap and
    the internal bandwidth is saturated.
    """
    ssd = SSD(system)
    total = yield from ssd.holding(STRING_SEARCH_MODULE, lambda mid: launch_searchers(
        ssd, mid, "string-search", path, keyword,
        searcher_shares(system.fs.lookup(path).size, system.fs.page_size,
                        num_searchers)))
    return total


def run_conv_search(system: System, path: str, keyword: str) -> Tuple[int, float]:
    t0 = system.sim.now_s
    count = system.run_fiber(conv_string_search(system, path, keyword))
    return count, system.sim.now_s - t0


def run_biscuit_search(
    system: System, path: str, keyword: str, num_searchers: int = 4
) -> Tuple[int, float]:
    t0 = system.sim.now_s
    count = system.run_fiber(biscuit_string_search(system, path, keyword, num_searchers))
    return count, system.sim.now_s - t0
