"""Web-log analytics: the "web-log analyzer" workload class (Table VII).

Kang et al.'s Smart-SSD prototype ran web-log analysis; Biscuit's model
makes it a three-stage hybrid pipeline:

* ``LogParser`` SSDlets stream the log off flash, parse records near the
  data, and pre-aggregate per-key hit/byte counts device-side;
* partial aggregates flow over host-to-device ports to a ``TopKMerger``
  :class:`~repro.core.hostlet.HostTask`, which merges them and keeps the
  global top-K — host work wired with exactly the same port API.

Only per-shard dictionaries cross the interface, not the log.  The Conv
baseline reads and parses everything on the host.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, List, Tuple

from repro.core import (
    SSD,
    Application,
    DeviceFile,
    HostTask,
    HostTaskProxy,
    Packet,
    SSDLet,
    SSDLetProxy,
    SSDletModule,
)
from repro.core.errors import PortClosed
from repro.core.types import deserialize, serialize
from repro.host.platform import System

__all__ = [
    "LOG_ANALYTICS_MODULE",
    "install_access_log",
    "conv_top_clients",
    "biscuit_top_clients",
    "run_conv",
    "run_biscuit",
]

LOG_ANALYTICS_MODULE = SSDletModule("log-analytics")

PARSE_US_PER_LINE_DEVICE = 2.2  # tokenize + hash on a Cortex-R7
PARSE_US_PER_LINE_HOST = 0.7  # the same work on a Xeon core

Partial = Dict[str, Tuple[int, int]]  # client -> (hits, bytes)


def install_access_log(
    system: System, path: str, num_lines: int, seed: int = 5,
) -> Tuple[int, Dict[str, Tuple[int, int]]]:
    """Write a real access log from 200 clients; returns (line count, true
    per-client stats)."""
    rng = random.Random(seed)
    num_clients = 200
    # Zipf-ish popularity: a few clients dominate, as in real logs.
    weights = [1.0 / (rank + 1) for rank in range(num_clients)]
    total = sum(weights)
    weights = [w / total for w in weights]
    lines: List[str] = []
    truth: Dict[str, Tuple[int, int]] = {}
    for _ in range(num_lines):
        client = "10.0.%d.%d" % divmod(
            rng.choices(range(num_clients), weights)[0], 256
        )
        size = rng.randint(200, 40_000)
        lines.append("%s - - [04/Jul/1996] \"GET /item/%d\" 200 %d"
                     % (client, rng.randrange(10_000), size))
        hits, volume = truth.get(client, (0, 0))
        truth[client] = (hits + 1, volume + size)
    system.fs.install(path, "\n".join(lines).encode() + b"\n")
    return num_lines, truth


def _parse_line(line: str) -> Tuple[str, int]:
    parts = line.split()
    return parts[0], int(parts[-1])


def _merge(total: Partial, part: Partial) -> None:
    for client, (hits, volume) in part.items():
        have_hits, have_volume = total.get(client, (0, 0))
        total[client] = (have_hits + hits, have_volume + volume)


def _top_k(stats: Partial, k: int) -> List[Tuple[str, int, int]]:
    ranked = sorted(
        ((client, hits, volume) for client, (hits, volume) in stats.items()),
        key=lambda row: (-row[1], row[0]),
    )
    return ranked[:k]


# ----------------------------------------------------------------- Conv
def conv_top_clients(system: System, path: str, k: int = 10,
                     needle: str = "") -> Generator:
    """Fiber: host reads the whole log and parses it; returns the top-K.

    With ``needle`` set (e.g. '" 404 '), only matching lines are analyzed —
    the host still reads and scans every byte first.
    """
    handle = system.open_host(path)
    data = yield from handle.read(0, handle.size)
    lines = data.decode().splitlines()
    if needle:
        yield from system.cpu.scan(len(data))  # Boyer-Moore over the log
        lines = [line for line in lines if needle in line]
    yield from system.cpu.occupy(len(lines) * PARSE_US_PER_LINE_HOST)
    stats: Partial = {}
    for line in lines:
        if not line:
            continue
        client, size = _parse_line(line)
        hits, volume = stats.get(client, (0, 0))
        stats[client] = (hits + 1, volume + size)
    return _top_k(stats, k)


# -------------------------------------------------------------- Biscuit
class LogParser(SSDLet):
    """Parses a byte range of the log and emits one Packet of partials.

    Args: (file_token, offset, length, needle).  With a needle, the token
    should be matcher-enabled: the IP discards non-matching data at wire
    speed and the device cores parse only the hit lines.
    """

    OUT_TYPES = (Packet,)

    def run(self) -> Generator:
        handle = yield from self.open(self.arg(0))
        offset, length, needle = self.arg(1), self.arg(2), self.arg(3)
        end = min(offset + length, handle.size)
        data = yield from handle.read(offset, end - offset)
        # Split-boundary handling: drop the leading partial line unless at
        # the file start; read on past the end to finish the trailing line.
        if offset > 0:
            newline = data.find(b"\n")
            data = data[newline + 1:] if newline >= 0 else b""
        while end < handle.size and not data.endswith(b"\n"):
            extra = yield from handle.read(end, min(256, handle.size - end))
            cut = extra.find(b"\n")
            if cut >= 0:
                data += extra[:cut + 1]
                break
            data += extra
            end += len(extra)
        lines = data.decode().splitlines()
        if needle:
            lines = [line for line in lines if needle in line]
        yield from self.compute(len(lines) * PARSE_US_PER_LINE_DEVICE)
        stats: Partial = {}
        for line in lines:
            if not line:
                continue
            client, size = _parse_line(line)
            hits, volume = stats.get(client, (0, 0))
            stats[client] = (hits + 1, volume + size)
        yield from self.out(0).put(serialize(stats, Dict[str, Tuple[int, int]]))


LOG_ANALYTICS_MODULE.register("idLogParser", LogParser)


class TopKMerger(HostTask):
    """Host task: merges per-shard partials, keeps the global top-K.

    Host-to-device ports are SPSC (Section III-C), so the merger exposes one
    input port per parser — build a concrete subclass with
    :func:`make_merger`.  Args: (k,).  Result in ``self.result``.
    """

    IN_TYPES = ()  # set by make_merger

    def run(self) -> Generator:
        k = self.arg(0)
        totals: Partial = {}
        for index in range(len(self.IN_TYPES)):
            try:
                packet = yield from self.in_(index).get()
            except PortClosed:
                continue
            part = deserialize(packet, Dict[str, Tuple[int, int]])
            yield from self.compute(len(part) * 0.4)
            _merge(totals, part)
        self.result = _top_k(totals, k)


_MERGER_CLASSES: Dict[int, type] = {}


def make_merger(num_shards: int) -> type:
    """A TopKMerger subclass with one Packet input port per shard."""
    cls = _MERGER_CLASSES.get(num_shards)
    if cls is None:
        cls = type("TopKMerger%d" % num_shards, (TopKMerger,),
                   {"IN_TYPES": (Packet,) * num_shards})
        _MERGER_CLASSES[num_shards] = cls
    return cls


def biscuit_top_clients(
    system: System, path: str, k: int = 10, num_parsers: int = 4,
    needle: str = "",
) -> Generator:
    """Fiber: device-side parse/pre-aggregate, host-side merge (one app)."""
    ssd = SSD(system)

    def program(mid: int) -> Generator:
        app = Application(ssd, "log-analytics")
        token = DeviceFile(ssd, path, use_matcher=bool(needle))
        size = system.fs.lookup(path).size
        share = (size + num_parsers - 1) // num_parsers
        merger = HostTaskProxy(app, make_merger(num_parsers), (k,))
        for index in range(num_parsers):
            begin = index * share
            parser = SSDLetProxy(
                app, mid, "idLogParser",
                (token, begin, min(share, size - begin), needle),
            )
            app.connect(parser.out(0), merger.in_(index))
        yield from app.run()
        return merger.instance.result

    top = yield from ssd.holding(LOG_ANALYTICS_MODULE, program)
    return top


def run_conv(system: System, path: str, k: int = 10, needle: str = ""):
    start = system.sim.now_s
    top = system.run_fiber(conv_top_clients(system, path, k, needle))
    return top, system.sim.now_s - start


def run_biscuit(system: System, path: str, k: int = 10,
                num_parsers: int = 4, needle: str = ""):
    start = system.sim.now_s
    top = system.run_fiber(
        biscuit_top_clients(system, path, k, num_parsers, needle)
    )
    return top, system.sim.now_s - start
