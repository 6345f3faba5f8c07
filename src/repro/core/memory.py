"""Dynamic memory allocation: a dlmalloc-style arena, system/user split.

Section IV-B: Biscuit keeps two allocators — a *system* allocator whose
memory SSDlets may not touch, and a *user* allocator for SSDlet-visible
memory.  Our arena is a first-fit free-list allocator with boundary
coalescing (the essential dlmalloc behaviour); it tracks real offsets so
fragmentation is observable and property-testable.

The target SSD has no MMU, so isolation is enforced by the runtime checking
ownership on free — modeled here by tagging allocations with their owner.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from repro.core.errors import MemoryQuotaError, SafetyViolation

__all__ = ["Arena", "AllocatorSet", "SYSTEM_OWNER"]

SYSTEM_OWNER = "<system>"

_ALIGN = 16


def _align(size: int) -> int:
    return (size + _ALIGN - 1) & ~(_ALIGN - 1)


class Arena:
    """First-fit free-list allocator over a byte range (no real bytes held)."""

    def __init__(self, size: int, name: str = "arena"):
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.size = size
        self.name = name
        # Free list: sorted list of (offset, length), disjoint, coalesced.
        self._free: List[Tuple[int, int]] = [(0, size)]
        # Live allocations: offset -> (length, owner)
        self._live: Dict[int, Tuple[int, str]] = {}
        self.peak_used = 0
        self.failed_allocs = 0

    # ------------------------------------------------------------- accounting
    @property
    def used(self) -> int:
        return sum(length for length, _ in self._live.values())

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def largest_free_block(self) -> int:
        return max((length for _, length in self._free), default=0)

    def external_fragmentation(self) -> float:
        """1 - largest_free/total_free: 0 when free space is one block."""
        total = self.free_bytes
        if total == 0:
            return 0.0
        return 1.0 - self.largest_free_block / total

    # ------------------------------------------------------------------- API
    def alloc(self, size: int, owner: str = SYSTEM_OWNER) -> int:
        """Allocate ``size`` bytes; returns the offset.  First-fit."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        need = _align(size)
        for index, (offset, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    self._free.pop(index)
                else:
                    self._free[index] = (offset + need, length - need)
                self._live[offset] = (need, owner)
                self.peak_used = max(self.peak_used, self.used)
                return offset
        self.failed_allocs += 1
        raise MemoryQuotaError(
            "%s: cannot allocate %d bytes (free=%d, largest=%d)"
            % (self.name, size, self.free_bytes, self.largest_free_block)
        )

    def free(self, offset: int, owner: Optional[str] = None) -> None:
        """Release an allocation; the owner (when given) must match."""
        entry = self._live.pop(offset, None)
        if entry is None:
            raise SafetyViolation("%s: free of unallocated offset %d" % (self.name, offset))
        length, alloc_owner = entry
        if owner is not None and owner != alloc_owner:
            # Put it back: the free is rejected.
            self._live[offset] = entry
            raise SafetyViolation(
                "%s: %r tried to free memory owned by %r" % (self.name, owner, alloc_owner)
            )
        self._insert_free(offset, length)

    def free_owner(self, owner: str) -> int:
        """Release every allocation of ``owner`` (module/instance teardown)."""
        offsets = [off for off, (_, who) in self._live.items() if who == owner]
        for offset in offsets:
            length, _ = self._live.pop(offset)
            self._insert_free(offset, length)
        return len(offsets)

    def owner_usage(self, owner: str) -> int:
        """Total live bytes currently held by ``owner``."""
        return sum(length for length, who in self._live.values() if who == owner)

    def owner_of(self, offset: int) -> str:
        entry = self._live.get(offset)
        if entry is None:
            raise SafetyViolation("%s: offset %d is not allocated" % (self.name, offset))
        return entry[1]

    # --------------------------------------------------------------- internals
    def _insert_free(self, offset: int, length: int) -> None:
        insort(self._free, (offset, length))
        self._coalesce()

    def _coalesce(self) -> None:
        merged: List[Tuple[int, int]] = []
        for offset, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                prev_offset, prev_length = merged[-1]
                merged[-1] = (prev_offset, prev_length + length)
            else:
                merged.append((offset, length))
        self._free = merged

    def check_invariants(self) -> None:
        """Raise if internal bookkeeping is inconsistent (used by tests)."""
        spans = sorted(
            [(off, length) for off, (length, _) in self._live.items()] + self._free
        )
        cursor = 0
        for offset, length in spans:
            if offset < cursor:
                raise AssertionError("%s: overlapping spans at %d" % (self.name, offset))
            cursor = offset + length
        if cursor > self.size:
            raise AssertionError("%s: spans exceed arena size" % self.name)
        if self.used + self.free_bytes > self.size:
            raise AssertionError("%s: accounting exceeds arena size" % self.name)


class AllocatorSet:
    """The runtime's system + user allocator pair with isolation checks."""

    def __init__(self, system_bytes: int, user_bytes: int):
        self.system = Arena(system_bytes, name="system-heap")
        self.user = Arena(user_bytes, name="user-heap")

    def system_alloc(self, size: int) -> int:
        return self.system.alloc(size, owner=SYSTEM_OWNER)

    def system_free(self, offset: int) -> None:
        self.system.free(offset, owner=SYSTEM_OWNER)

    def user_alloc(self, size: int, owner: str) -> int:
        if owner == SYSTEM_OWNER:
            raise SafetyViolation("user allocations must name a real owner")
        return self.user.alloc(size, owner=owner)

    def user_free(self, offset: int, owner: str) -> None:
        self.user.free(offset, owner=owner)

    def release_owner(self, owner: str) -> int:
        """Free everything an SSDlet instance owned (instance teardown)."""
        return self.user.free_owner(owner)
