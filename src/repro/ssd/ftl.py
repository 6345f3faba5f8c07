"""Page-mapped flash translation layer with garbage collection.

The paper's SSDlets never see this layer (Biscuit "prohibits SSDlets from
directly using low-level, logical block addresses" and all I/O "goes through
the same I/O paths with normal I/O requests" — Section VI).  It exists here
because the device's media-management behaviour (striping, GC, wear
leveling) is part of the substrate the experiments run on.

Model: logical pages (4 KiB) are the mapping unit; four of them share one
16 KiB physical page.  Writes round-robin across (channel, die) pairs and
buffer into an open physical page per die; a page programs when its slots
fill (or on flush).  GC picks the victim block with the fewest valid slots,
relocates live data, erases.  Free-block allocation prefers the
least-erased block (wear leveling).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, NamedTuple, Optional, Sequence

from repro.core.errors import EccError, OutOfSpaceError, UncorrectableReadError
from repro.sim.engine import Event, Simulator, all_of
from repro.sim.units import us_to_ns
from repro.ssd.config import SSDConfig
from repro.ssd.nand import NandArray

__all__ = ["FTL", "PhysAddr"]


class PhysAddr(NamedTuple):
    channel: int
    die: int
    block: int
    page: int
    slot: int


class _Block:
    __slots__ = ("index", "valid", "erase_count", "slots")

    def __init__(self, index: int):
        self.index = index
        self.valid = 0
        self.erase_count = 0
        # slots[page][slot] = lpn or None; () while the block is free —
        # _allocate_block gives it its lists, wipe drops them again.
        self.slots: Sequence[List[Optional[int]]] = ()

    def wipe(self) -> None:
        self.valid = 0
        self.erase_count += 1
        self.slots = ()


class _Die:
    __slots__ = ("channel", "die", "blocks", "free", "open_block", "next_page", "pending")

    def __init__(self, channel: int, die: int, config: SSDConfig):
        self.channel = channel
        self.die = die
        self.blocks = [_Block(i) for i in range(config.blocks_per_die)]
        self.free: deque = deque(self.blocks)
        self.open_block: Optional[_Block] = None
        self.next_page = 0
        self.pending: List[int] = []  # lpns buffered for the open physical page


class FTL:
    """Page-mapped FTL over a :class:`~repro.ssd.nand.NandArray`."""

    GC_FREE_THRESHOLD = 2  # run GC when a die has fewer free blocks than this

    def __init__(self, sim: Simulator, config: SSDConfig, nand: NandArray,
                 read_cache=None):
        config.validate()
        self.sim = sim
        self.config = config
        self.nand = nand
        # Trace track for ftl.* events; SSDDevice rescopes it ("ssd0/ftl").
        self.trace_track = "ssd/ftl"
        #: Device-DRAM read cache (repro.ssd.cache.DeviceReadCache) to keep
        #: coherent with the mapping: a remapped LPN, a reprogrammed physical
        #: page, or an erased block must never serve a stale line.
        self.read_cache = read_cache
        self._dies = [
            _Die(channel, die, config)
            for channel in range(config.channels)
            for die in range(config.dies_per_channel)
        ]
        self._map: Dict[int, PhysAddr] = {}
        self._cursor = 0
        # Statistics.
        self.host_pages_written = 0
        self.relocated_pages = 0
        self.physical_pages_programmed = 0
        self.gc_runs = 0

    # ------------------------------------------------------------- inspection
    def is_mapped(self, lpn: int) -> bool:
        return lpn in self._map

    def translate(self, lpn: int) -> PhysAddr:
        """Physical location of a logical page; raises ``KeyError`` if unmapped."""
        return self._map[lpn]

    @property
    def mapped_pages(self) -> int:
        return len(self._map)

    @property
    def write_amplification(self) -> float:
        """NAND slot-writes (host + relocation) per host page write."""
        if self.host_pages_written == 0:
            return 0.0
        return (self.host_pages_written + self.relocated_pages) / self.host_pages_written

    def erase_counts(self) -> List[int]:
        return [block.erase_count for die in self._dies for block in die.blocks]

    # ------------------------------------------------------------------ write
    def write(self, lpns: List[int]) -> Generator:
        """Fiber: write the given logical pages (data path timing included)."""
        programs = []
        for lpn in lpns:
            if lpn < 0:
                raise ValueError("negative LPN %d" % lpn)
            self._invalidate(lpn)
            die = self._dies[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._dies)
            if len(die.free) < self.GC_FREE_THRESHOLD:
                yield from self._maybe_gc(die)
            event = self._append(die, lpn, relocation=False)
            if event is not None:
                programs.append(event)
        if programs:
            yield all_of(self.sim, programs)

    def trim(self, lpns: List[int]) -> None:
        """Discard mappings (e.g. on file delete); instantaneous metadata op."""
        for lpn in lpns:
            self._invalidate(lpn)
            self._map.pop(lpn, None)

    def flush(self) -> Generator:
        """Fiber: force partially-filled open pages onto media."""
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        programs = []
        for die in self._dies:
            if die.pending:
                programs.append(self._program_pending(die))
        if programs:
            yield all_of(self.sim, programs)
        if trace is not None and programs:
            trace.complete("ftl", "flush", self.trace_track, start_ns,
                           pages=len(programs))

    # ----------------------------------------------------------- internals
    def _invalidate(self, lpn: int) -> None:
        # Unconditional: a page placed synthetically (never FTL-mapped) may
        # still sit in the read cache and is about to change placement.
        if self.read_cache is not None:
            self.read_cache.invalidate_lpn(lpn)
        old = self._map.get(lpn)
        if old is None:
            return
        die = self._die_at(old.channel, old.die)
        block = die.blocks[old.block]
        if block.slots[old.page][old.slot] == lpn:
            block.slots[old.page][old.slot] = None
            block.valid -= 1

    def _die_at(self, channel: int, die: int) -> _Die:
        return self._dies[channel * self.config.dies_per_channel + die]

    def _physical_id(self, die: _Die, block_index: int, page: int) -> int:
        """Physical page id as the controller's placement() derives it."""
        return ((die.die * self.config.blocks_per_die + block_index)
                * self.config.pages_per_block + page)

    def _allocate_block(self, die: _Die) -> _Block:
        if not die.free:
            raise OutOfSpaceError("no free blocks to allocate",
                                  channel=die.channel, die=die.die)
        # Wear leveling: pick the least-erased free block.
        best = min(die.free, key=lambda block: block.erase_count)
        die.free.remove(best)
        slots_per_page = self.config.logical_pages_per_physical
        best.slots = [[None] * slots_per_page
                      for _ in range(self.config.pages_per_block)]
        if self.sim.trace is not None:
            self.sim.trace.instant(
                "ftl", "alloc-block", self.trace_track, channel=die.channel,
                die=die.die, block=best.index, erase_count=best.erase_count)
        return best

    def _append(self, die: _Die, lpn: int, relocation: bool) -> Optional[Event]:
        """Place ``lpn`` into the die's open page; returns a program event
        once the page fills, else None.  Host writes run GC first
        (:meth:`write`); this never waits."""
        if relocation and self.read_cache is not None:
            # GC relocation remaps the LPN without passing through
            # _invalidate: drop it from its old cached line here.
            self.read_cache.invalidate_lpn(lpn)
        if die.open_block is None:
            die.open_block = self._allocate_block(die)
            die.next_page = 0
        block = die.open_block
        slot = len(die.pending)
        block.slots[die.next_page][slot] = lpn
        block.valid += 1
        self._map[lpn] = PhysAddr(die.channel, die.die, block.index, die.next_page, slot)
        die.pending.append(lpn)
        if relocation:
            self.relocated_pages += 1
        else:
            self.host_pages_written += 1
        if len(die.pending) == self.config.logical_pages_per_physical:
            return self._program_pending(die)
        return None

    def _program_pending(self, die: _Die):
        """Kick off the NAND program for the die's buffered page; returns its event."""
        filled = len(die.pending)
        die.pending = []
        transfer = filled * self.config.logical_page_bytes
        self.physical_pages_programmed += 1
        if self.read_cache is not None:
            # The physical page gets new contents: a line cached before this
            # block's last erase must not survive the reprogram.
            self.read_cache.invalidate_physical(
                die.channel, self._physical_id(die, die.open_block.index,
                                               die.next_page))
        channel = self.nand[die.channel]
        event = self.sim.process(channel.program(transfer),
                                 name="prog ch%d d%d" % (die.channel, die.die))
        die.next_page += 1
        if die.next_page == self.config.pages_per_block:
            die.open_block = None
            die.next_page = 0
        return event

    def _maybe_gc(self, die: _Die) -> Generator:
        """Run garbage collection on the die until it has breathing room."""
        while len(die.free) < self.GC_FREE_THRESHOLD:
            victim = self._pick_victim(die)
            if victim is None:
                if die.free:
                    return  # nothing reclaimable but not wedged yet
                raise OutOfSpaceError("no GC victim and no free blocks",
                                      channel=die.channel, die=die.die)
            yield from self._collect(die, victim)

    def _pick_victim(self, die: _Die) -> Optional[_Block]:
        # A block holds slot lists exactly while it is out of die.free.
        candidates = [
            block for block in die.blocks
            if block.slots and block is not die.open_block
        ]
        if not candidates:
            return None
        victim = min(candidates, key=lambda block: block.valid)
        slots_per_block = self.config.pages_per_block * self.config.logical_pages_per_physical
        if victim.valid >= slots_per_block:
            return None  # everything is live; GC would not reclaim space
        return victim

    def _collect(self, die: _Die, victim: _Block) -> Generator:
        """Relocate the victim's live pages, then erase it."""
        self.gc_runs += 1
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        channel = self.nand[die.channel]
        live: List[int] = []
        for page_index, page_slots in enumerate(victim.slots):
            page_live = [lpn for lpn in page_slots if lpn is not None]
            if page_live:
                # One media read per physical page holding live data.
                physical = (
                    (die.die * self.config.blocks_per_die + victim.index)
                    * self.config.pages_per_block + page_index
                )
                yield from self._gc_read(
                    channel, len(page_live) * self.config.logical_page_bytes,
                    physical, die, victim, page_index)
                live.extend(page_live)
        for lpn in live:
            # The slot is consumed by relocation; clear it from the victim.
            addr = self._map[lpn]
            victim.slots[addr.page][addr.slot] = None
            victim.valid -= 1
            event = self._append(die, lpn, relocation=True)
            if event is not None:
                yield event
        yield from channel.erase()
        victim.wipe()
        if self.read_cache is not None:
            # Erased media: every cached line over this block is dead.
            self.read_cache.invalidate_physical_range(
                die.channel, self._physical_id(die, victim.index, 0),
                self.config.pages_per_block)
        die.free.append(victim)
        if trace is not None:
            trace.complete("ftl", "gc", self.trace_track, start_ns,
                           channel=die.channel, die=die.die,
                           block=victim.index, relocated=len(live))

    def _gc_read(self, channel, transfer: int, physical: int,
                 die: _Die, victim: _Block, page_index: int) -> Generator:
        """One relocation read, with the same retry policy the controller uses.

        Losing a relocation read means losing live data, so an exhausted
        retry budget surfaces as a context-rich UncorrectableReadError rather
        than being absorbed.
        """
        attempt = 0
        while True:
            try:
                yield from channel.read(transfer, physical_page=physical)
                return
            except EccError as exc:
                attempt += 1
                if attempt > self.config.read_retry_limit:
                    raise UncorrectableReadError(
                        "GC relocation read failed after %d attempts" % attempt,
                        channel=die.channel, die=die.die,
                        block=victim.index, page=page_index) from exc
                backoff_us = self.config.read_retry_backoff_us * attempt
                if backoff_us > 0:
                    yield self.sim.timeout(us_to_ns(backoff_us))
            except UncorrectableReadError as exc:
                raise UncorrectableReadError(
                    "GC relocation read failed",
                    channel=die.channel, die=die.die,
                    block=victim.index, page=page_index) from exc
