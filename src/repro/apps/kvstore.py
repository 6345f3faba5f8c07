"""SkimpyStash-style key-value store with device-side chain traversal.

Section VI points at SkimpyStash [40] — a RAM-skimpy KV store whose hash
directory lives in memory while collision *chains* live on flash — as a
natural Biscuit target: "one can leverage Biscuit to accelerate metadata
traversal in those SSDs".

Layout: one log file on the device.  A record is::

    [u16 key_len][u16 val_len][u64 prev_offset][key bytes][value bytes]

The in-memory directory maps bucket → offset of the chain head (the most
recently written record for that bucket); lookups walk ``prev_offset``
links until the key matches.  Every hop is a dependent flash read — so a
host lookup pays the full pread round trip per hop, while the Lookup
SSDlet pays only the internal read.  Keys are shipped to the device in
batches, amortizing the port costs.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import zlib

from repro.core import (
    SSD,
    Application,
    DeviceFile,
    Packet,
    SSDLet,
    SSDLetProxy,
    SSDletModule,
)
from repro.core.errors import PortClosed
from repro.host.platform import System

__all__ = ["KVStore", "build_store", "KV_MODULE"]

_HEADER = struct.Struct("<HHQ")
_READ_SPAN = 4096  # a record fetch reads the enclosing 4 KiB page(s)

KV_MODULE = SSDletModule("kvstore")

#: Device CPU cost to parse one record and compare keys.
DEVICE_HOP_US = 3.0
#: Host CPU cost for the same work (faster core).
HOST_HOP_US = 1.0


def _bucket_of(key: bytes, buckets: int) -> int:
    return zlib.crc32(key) % buckets


def _encode_record(key: bytes, value: bytes, prev_offset: int) -> bytes:
    return _HEADER.pack(len(key), len(value), prev_offset) + key + value


class KVStore:
    """One store: a log file plus the in-memory directory."""

    def __init__(self, system: System, path: str, buckets: int):
        self.system = system
        self.path = path
        self.buckets = buckets
        # bucket -> offset of chain head; 2^64-1 marks an empty bucket.
        self.directory: List[int] = [0xFFFFFFFFFFFFFFFF] * buckets
        self.record_count = 0
        self._mid: Optional[int] = None

    # ------------------------------------------------------------- building
    @classmethod
    def build(cls, system: System, path: str,
              items: Sequence[Tuple[bytes, bytes]], buckets: int = 64) -> "KVStore":
        """Write all items into a fresh log (bootstrap, untimed)."""
        store = cls(system, path, buckets)
        log = bytearray()
        for key, value in items:
            bucket = _bucket_of(key, buckets)
            record = _encode_record(key, value, store.directory[bucket])
            store.directory[bucket] = len(log)
            log.extend(record)
            store.record_count += 1
        system.fs.install(path, bytes(log))
        return store

    def _parse_record(self, data: bytes, offset: int) -> Tuple[bytes, bytes, int]:
        key_len, val_len, prev = _HEADER.unpack_from(data, 0)
        key = data[_HEADER.size:_HEADER.size + key_len]
        value = data[_HEADER.size + key_len:_HEADER.size + key_len + val_len]
        return key, value, prev

    def _record_span(self, offset: int) -> Tuple[int, int]:
        """Byte range to read for the record at ``offset`` (page-aligned-ish)."""
        inode = self.system.fs.lookup(self.path)
        length = min(_READ_SPAN, inode.size - offset)
        return offset, length

    # --------------------------------------------------------------- lookup
    def get_conv(self, keys: Sequence[bytes]) -> Generator:
        """Fiber: host-side chain walks; returns {key: value or None}."""
        handle = self.system.open_host(self.path)
        results: Dict[bytes, Optional[bytes]] = {}
        for key in keys:
            offset = self.directory[_bucket_of(key, self.buckets)]
            value = None
            while offset != 0xFFFFFFFFFFFFFFFF:
                begin, length = self._record_span(offset)
                data = yield from handle.read(begin, length)
                yield from self.system.cpu.occupy(HOST_HOP_US)
                record_key, record_value, prev = self._parse_record(data, offset)
                if record_key == key:
                    value = record_value
                    break
                offset = prev
            results[key] = value
        return results

    def get_biscuit(self, keys: Sequence[bytes], batch: int = 64) -> Generator:
        """Fiber: ship key batches to a Lookup SSDlet; returns {key: value}."""
        ssd = SSD(self.system)
        if self._mid is None:
            self._mid = yield from ssd.load(KV_MODULE)
        app = Application(ssd, "kv-lookup")
        token = DeviceFile(ssd, self.path)
        lookup = SSDLetProxy(app, self._mid, "idLookup",
                             (token, list(self.directory), self.buckets))
        request = app.connectFrom(Packet, lookup.in_(0))
        response = app.connectTo(lookup.out(0), Packet)

        def collect() -> Generator:
            results: Dict[bytes, Optional[bytes]] = {}
            for start in range(0, len(keys), batch):
                chunk = list(keys[start:start + batch])
                yield from request.put(Packet(_pack_keys(chunk)))
                reply = yield from response.get()
                for key, value in zip(chunk, _unpack_values(reply.payload)):
                    results[key] = value
            request.close()
            return results

        # run() stops the application also on Interrupt: a cancelled hedge
        # leg gives its channels back.
        results = yield from app.run(collect())
        return results


def _pack_keys(keys: List[bytes]) -> bytes:
    out = [struct.pack("<H", len(keys))]
    for key in keys:
        out.append(struct.pack("<H", len(key)))
        out.append(key)
    return b"".join(out)


def _unpack_keys(payload: bytes) -> List[bytes]:
    (count,) = struct.unpack_from("<H", payload, 0)
    offset = 2
    keys = []
    for _ in range(count):
        (length,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        keys.append(payload[offset:offset + length])
        offset += length
    return keys


def _pack_values(values: List[Optional[bytes]]) -> bytes:
    out = [struct.pack("<H", len(values))]
    for value in values:
        if value is None:
            out.append(struct.pack("<i", -1))
        else:
            out.append(struct.pack("<i", len(value)))
            out.append(value)
    return b"".join(out)


def _unpack_values(payload: bytes) -> List[Optional[bytes]]:
    (count,) = struct.unpack_from("<H", payload, 0)
    offset = 2
    values: List[Optional[bytes]] = []
    for _ in range(count):
        (length,) = struct.unpack_from("<i", payload, offset)
        offset += 4
        if length < 0:
            values.append(None)
        else:
            values.append(payload[offset:offset + length])
            offset += length
    return values


class Lookup(SSDLet):
    """Device-side chain walker.

    Args: (file_token, directory, buckets).  In port 0: packed key batches;
    out port 0: packed value batches (None for misses).
    """

    IN_TYPES = (Packet,)
    OUT_TYPES = (Packet,)

    def run(self) -> Generator:
        handle = yield from self.open(self.arg(0))
        directory: List[int] = self.arg(1)
        buckets: int = self.arg(2)
        size = handle.size
        while True:
            try:
                request = yield from self.in_(0).get()
            except PortClosed:
                return
            keys = _unpack_keys(request.payload)
            values: List[Optional[bytes]] = []
            for key in keys:
                offset = directory[_bucket_of(key, buckets)]
                value = None
                while offset != 0xFFFFFFFFFFFFFFFF:
                    length = min(_READ_SPAN, size - offset)
                    data = yield from handle.read(offset, length)
                    yield from self.compute(DEVICE_HOP_US)
                    key_len, val_len, prev = _HEADER.unpack_from(data, 0)
                    record_key = data[_HEADER.size:_HEADER.size + key_len]
                    if record_key == key:
                        value = data[_HEADER.size + key_len:
                                     _HEADER.size + key_len + val_len]
                        break
                    offset = prev
                values.append(value)
            yield from self.out(0).put(Packet(_pack_values(values)))


KV_MODULE.register("idLookup", Lookup)


def build_store(system: System, num_items: int, buckets: int,
                path: str = "/kv/store.log", seed: int = 3) -> KVStore:
    """Convenience: a store with deterministic keys key-%08d and random
    64-byte values."""
    import random
    rng = random.Random(seed)
    items = [
        (b"key-%08d" % index, bytes(rng.getrandbits(8) for _ in range(64)))
        for index in range(num_items)
    ]
    return KVStore.build(system, path, items, buckets=buckets)
