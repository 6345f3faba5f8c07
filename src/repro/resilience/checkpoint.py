"""Scan checkpoints: exactly-once row accounting across retries.

A resilient scan splits a table into per-worker page ranges.  Each worker
streams rows back in batches; at every checkpoint boundary it emits a
*marker* meaning "every surviving row for pages < ``end_page`` has been
emitted".  The host side **stages** incoming rows and **commits** them only
when the marker arrives, advancing the range's resume point.

If the worker dies mid-range (device fault, crash, interrupt), everything
staged since the last marker is discarded and the range resumes at the
committed page — rows are neither lost (uncommitted pages are re-scanned)
nor duplicated (committed pages are never re-scanned, and their staged rows
were promoted exactly once).

Hedged attempts run on a :meth:`ScanCheckpoint.clone`; the winning leg's
clone is adopted as the new shared state, so two legs never interleave
commits into one ledger.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.db.ndp import page_ranges

__all__ = ["RangeCheckpoint", "ScanCheckpoint"]


class RangeCheckpoint:
    """Commit ledger for one worker's page range [first_page, end_page)."""

    __slots__ = ("first_page", "end_page", "committed_page",
                 "rows", "_staged")

    def __init__(self, first_page: int, end_page: int):
        if end_page < first_page:
            raise ValueError("range ends before it starts")
        self.first_page = first_page
        self.end_page = end_page
        self.committed_page = first_page  # resume point
        self.rows: List[tuple] = []  # committed rows, in emit order
        self._staged: List[tuple] = []

    @property
    def done(self) -> bool:
        return self.committed_page >= self.end_page

    def stage(self, rows: List[tuple]) -> None:
        """Buffer rows that arrived but are not yet covered by a marker."""
        self._staged.extend(rows)

    def commit(self, end_page: int) -> None:
        """A marker arrived: promote staged rows, advance the resume point."""
        if end_page < self.committed_page or end_page > self.end_page:
            raise ValueError(
                "checkpoint marker %d outside [%d, %d]"
                % (end_page, self.committed_page, self.end_page))
        self.rows.extend(self._staged)
        self._staged = []
        self.committed_page = end_page

    def abort(self) -> int:
        """The attempt died: drop staged rows; returns how many were dropped."""
        dropped = len(self._staged)
        self._staged = []
        return dropped

    def clone(self) -> "RangeCheckpoint":
        other = RangeCheckpoint(self.first_page, self.end_page)
        other.committed_page = self.committed_page
        other.rows = list(self.rows)
        return other


class ScanCheckpoint:
    """All of one scan's range ledgers (one per worker share)."""

    def __init__(self, ranges: List[Tuple[int, int]]):
        self.ranges = [RangeCheckpoint(first, end) for first, end in ranges]
        self.commits = 0
        self.aborted_rows = 0

    @classmethod
    def for_pages(cls, num_pages: int, workers: int) -> "ScanCheckpoint":
        """One ledger range per SSDlet of the NDP scan's worker split."""
        return cls([(first, first + count)
                    for first, count in page_ranges(num_pages, workers)])

    @property
    def done(self) -> bool:
        return all(r.done for r in self.ranges)

    def pending(self) -> List[int]:
        """Indexes of ranges that still have pages to scan."""
        return [i for i, r in enumerate(self.ranges) if not r.done]

    def stage(self, index: int, rows: List[tuple]) -> None:
        self.ranges[index].stage(rows)

    def commit(self, index: int, end_page: int) -> None:
        self.ranges[index].commit(end_page)
        self.commits += 1

    def abort(self) -> None:
        """Drop every range's staged rows (the attempt failed)."""
        for r in self.ranges:
            self.aborted_rows += r.abort()

    def collect(self) -> List[tuple]:
        """Every committed row, range-major (deterministic order)."""
        rows: List[tuple] = []
        for r in self.ranges:
            rows.extend(r.rows)
        return rows

    def clone(self) -> "ScanCheckpoint":
        other = ScanCheckpoint.__new__(ScanCheckpoint)
        other.ranges = [r.clone() for r in self.ranges]
        other.commits = self.commits
        other.aborted_rows = self.aborted_rows
        return other

    def adopt(self, winner: "ScanCheckpoint") -> None:
        """Replace this ledger's state with a winning clone's."""
        self.ranges = winner.ranges
        self.commits = winner.commits
        self.aborted_rows = winner.aborted_rows
