"""A fixed piece of work that tells how fast the box is right now.

The reference box (a 2-vCPU VM on a shared host) changes speed by tens of
percent over minutes, for every program on it alike, so seconds measured
in two runs are not the same unit.  The runner therefore runs this kernel
(about 30 ms: a heap, generator sends, small objects, a dict — the
simulator's instruction mix, none of its code) before and after every
repetition and every set-up, and reports host times in *reference
seconds*: measured seconds x ``REFERENCE_KERNEL_S`` / the kernel's own time
in that run.  Both sides of the ratio are taken at their fastest, which is
the box's best speed during the run.

The kernel and the constant are frozen: changing either changes the unit
of every host-time number recorded so far.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Generator, List

__all__ = ["REFERENCE_KERNEL_S", "Yardstick", "kernel"]

#: The kernel's time on the reference box at its quiet speed.
REFERENCE_KERNEL_S = 0.027

_EVENTS = 30_000
_FIBERS = 16
_HEAP_DEPTH = 48


class _Event:
    __slots__ = ("when", "value", "callbacks")

    def __init__(self, when: int):
        self.when = when
        self.value = None
        self.callbacks: list = []


def _fiber() -> Generator[int, int, None]:
    total = 0
    while True:
        got = yield total
        total += got & 7


def kernel() -> float:
    """Run the fixed work once; seconds it took."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    fibers = [_fiber() for _ in range(_FIBERS)]
    for fiber in fibers:
        next(fiber)
    table = {}
    x = 12345
    start = time.perf_counter()
    for i in range(_EVENTS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        event = _Event(x % 1000 + i)
        event.callbacks.append(fibers[i % _FIBERS].send)
        push(heap, (event.when, i, event))
        table[x & 1023] = event
        if len(heap) > _HEAP_DEPTH:
            when, _, due = pop(heap)
            for callback in due.callbacks:
                due.value = callback(when)
    return time.perf_counter() - start


class Yardstick:
    """The kernel's times over one run and the factor they give."""

    #: The factor rests on the mean of this many fastest samples: one lucky
    #: sample moves a minimum, a slow spell moves a median.
    FASTEST = 3

    def __init__(self) -> None:
        self.samples_s: List[float] = []

    def sample(self) -> None:
        self.samples_s.append(kernel())

    def kernel_s(self) -> float:
        return statistics.mean(sorted(self.samples_s)[:self.FASTEST])

    def factor(self) -> float:
        """Reference seconds per measured second in this run."""
        return REFERENCE_KERNEL_S / self.kernel_s()
