"""Per-channel hardware pattern matcher IP.

Section IV-A/V-A: each flash channel has a key-based matcher; given at most
three keys of up to 16 bytes, it inspects data streaming off the channel at
wire speed and reports which regions matched.  Software only pays a small
per-command IP-control overhead — which is why matcher-enabled bandwidth sits
slightly below raw internal bandwidth but far above what the device cores
could scan in software.

Two evaluation modes:

* **exact** — :meth:`match_bytes` scans real page bytes (used by tests,
  examples and small-scale runs; semantics are real).
* **analytic** — :meth:`match_pages_analytic` decides a run of pages from
  a deterministic hash of (seed, page index, key) against a caller-supplied
  per-key match probability.  Used to run paper-scale (GiB) workloads
  without materializing the bytes.  Timing is identical in both modes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.ssd.config import SSDConfig

__all__ = ["PatternMatcher", "MatchResult", "KeyError16"]


class KeyError16(ValueError):
    """A search key violates the hardware limits (count or length)."""


@dataclass
class MatchResult:
    """Outcome of matching one page."""

    page_index: int
    matched: bool
    hits: Dict[bytes, int] = field(default_factory=dict)  # key -> occurrence count

    def count(self, key: bytes) -> int:
        return self.hits.get(key, 0)

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())


class PatternMatcher:
    """The matcher IP for one channel (stateless between commands)."""

    def __init__(self, config: SSDConfig, channel_index: int):
        self.config = config
        self.channel_index = channel_index
        self.pages_scanned = 0
        self.pages_matched = 0

    # -------------------------------------------------------------- validation
    def validate_keys(self, keys: Sequence[bytes]) -> Tuple[bytes, ...]:
        """Check keys against the hardware limits; returns them as a tuple."""
        keys = tuple(keys)
        if not keys:
            raise KeyError16("at least one search key is required")
        if len(keys) > self.config.matcher_max_keys:
            raise KeyError16(
                "matcher supports at most %d keys, got %d"
                % (self.config.matcher_max_keys, len(keys))
            )
        for key in keys:
            if not isinstance(key, (bytes, bytearray)):
                raise KeyError16("keys must be bytes, got %r" % (key,))
            if not 1 <= len(key) <= self.config.matcher_max_key_bytes:
                raise KeyError16(
                    "key length %d outside 1..%d"
                    % (len(key), self.config.matcher_max_key_bytes)
                )
        return tuple(bytes(key) for key in keys)

    # ------------------------------------------------------------- exact mode
    def match_bytes(self, page_index: int, data: bytes, keys: Sequence[bytes]) -> MatchResult:
        """Scan real bytes for the keys (hardware OR-semantics across keys)."""
        keys = self.validate_keys(keys)
        hits: Dict[bytes, int] = {}
        for key in keys:
            count = data.count(key)
            if count:
                hits[key] = count
        self.pages_scanned += 1
        matched = bool(hits)
        if matched:
            self.pages_matched += 1
        return MatchResult(page_index=page_index, matched=matched, hits=hits)

    # ---------------------------------------------------------- analytic mode
    def match_pages_analytic(
        self,
        first_page: int,
        count: int,
        keys: Sequence[bytes],
        key_probabilities: Dict[bytes, float],
        seed: int = 0,
    ) -> Tuple[List[int], int]:
        """Decide pages ``first_page .. first_page + count - 1`` from a
        deterministic hash, honoring per-key probability.

        Returns the matched page indexes and the total key hits (one per
        key that matched a page).  The same (seed, page, key) always yields
        the same verdict, so analytic runs are reproducible and monotone in
        probability.
        """
        pages = range(first_page, first_page + count)
        uniform = self._uniform
        hits: Dict[int, int] = {}  # page index -> keys matched there
        for key in self.validate_keys(keys):
            probability = key_probabilities.get(key, 0.0)
            if probability <= 0.0:
                continue
            for index in pages:
                if probability >= 1.0 or uniform(seed, index, key) < probability:
                    hits[index] = hits.get(index, 0) + 1
        matched = sorted(hits)
        self.pages_scanned += count
        self.pages_matched += len(matched)
        return matched, sum(hits.values())

    @staticmethod
    def _uniform(seed: int, page_index: int, key: bytes) -> float:
        digest = hashlib.blake2b(
            b"%d:%d:" % (seed, page_index) + key, digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)
