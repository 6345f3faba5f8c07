"""The traced run's two instruments, both kept outside ``src/``.

* :class:`SpanRecorder` — spans the driver records around each call it
  makes into a layer (name, start, end, id, parent id), held in memory and
  written out once when the benchmark ends.
* :class:`SelfTimeSampler` — a ``setitimer(ITIMER_PROF)`` sampler that
  charges each tick to the innermost frame under ``src/repro/<pkg>/``.
  That is the layer's *self time* (its span minus its children) measured
  from outside the program.  Preferred over ``cProfile``, whose per-call
  cost inflated call-dense layers (``tpch_sql`` 5.8 s -> 17 s in the
  prototype); the sampler costs a few percent.

The kernel delivers ITIMER_PROF at its tick (250 Hz on the reference box
whatever interval is asked for), so callers turn sample *shares* into
seconds with a wall time they measured themselves, never count x interval.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["DRIVER", "SelfTimeSampler", "SpanRecorder"]

#: Bucket for samples whose stack never enters ``src/repro/`` (the
#: benchmark's own code, the stdlib called from it, gc).
DRIVER: Tuple[str, str] = ("driver", "")

_SAMPLE_INTERVAL_S = 0.002


class SpanRecorder:
    """Nested wall-clock spans; a disabled recorder records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record: Dict[str, object] = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()


class SelfTimeSampler:
    """Profiling-timer sampler bucketing ticks by (package, file)."""

    def __init__(self, package_root: str):
        # ".../src/repro/" — a frame belongs to a layer when its file sits
        # below this directory; the layer is the first path component.
        self._root = os.path.join(os.path.realpath(package_root), "")
        self._where: Dict[object, Optional[Tuple[str, str]]] = {}
        self.counts: "Counter[Tuple[str, str]]" = Counter()
        self._previous = None

    def _classify(self, filename: str) -> Optional[Tuple[str, str]]:
        path = os.path.realpath(filename)
        if not path.startswith(self._root):
            return None
        package, _, rest = path[len(self._root):].partition(os.sep)
        if not rest:  # a module directly under repro/, no layer
            return None
        return package, rest[:-3] if rest.endswith(".py") else rest

    def _on_tick(self, _signum, frame) -> None:
        where = self._where
        while frame is not None:
            code = frame.f_code
            try:
                key = where[code]
            except KeyError:
                key = where[code] = self._classify(code.co_filename)
            if key is not None:
                self.counts[key] += 1
                return
            frame = frame.f_back
        self.counts[DRIVER] += 1

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)

    def uninstall(self) -> None:
        self.stop()
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, _SAMPLE_INTERVAL_S,
                         _SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    # ------------------------------------------------------------- reading
    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def share(self, package: str, file: Optional[str] = None) -> float:
        """Fraction of all samples charged to a package (or one file)."""
        total = self.samples
        if not total:
            return 0.0
        hit = sum(count for (pkg, name), count in self.counts.items()
                  if pkg == package and (file is None or name == file))
        return hit / total

    def table(self) -> List[Dict[str, object]]:
        """Every bucket, largest first (for the trace file)."""
        return [
            {"package": pkg, "file": name, "samples": count}
            for (pkg, name), count in sorted(
                self.counts.items(), key=lambda item: (-item[1], item[0]))
        ]
