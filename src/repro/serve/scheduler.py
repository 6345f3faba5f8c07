"""Pluggable request schedulers for the serving layer.

Both policies expose the same tiny interface — ``push(job)``,
``peek()``, ``pop()``, ``len()`` — and are strictly deterministic: every
tie breaks on submission order, never on hash order or object identity.

* :class:`FIFOScheduler` — global arrival order.
* :class:`WFQScheduler` — weighted fair queueing across tenants
  (start-time-clocked virtual finish tags, SCFQ style): each job's virtual
  finish is ``max(vtime, tenant_last_finish) + cost / weight``; the smallest
  finish tag runs next.  A light tenant's occasional jobs carry small tags
  and overtake a heavy tenant's backlog, which is what bounds the light
  tenant's latency under saturation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.serve.jobs import Job

__all__ = [
    "FIFOScheduler",
    "SCHEDULER_POLICIES",
    "Scheduler",
    "WFQScheduler",
    "make_scheduler",
]


class Scheduler:
    """Policy interface; concrete policies override push/peek/pop."""

    name = "base"

    def push(self, job: Job) -> None:
        raise NotImplementedError

    def peek(self) -> Optional[Job]:
        """The job ``pop`` would return, without removing it."""
        raise NotImplementedError

    def pop(self) -> Optional[Job]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FIFOScheduler(Scheduler):
    name = "fifo"

    def __init__(self) -> None:
        self._queue: List[Job] = []

    def push(self, job: Job) -> None:
        self._queue.append(job)

    def peek(self) -> Optional[Job]:
        return self._queue[0] if self._queue else None

    def pop(self) -> Optional[Job]:
        return self._queue.pop(0) if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class WFQScheduler(Scheduler):
    """Weighted fair queueing across tenants (virtual finish tags)."""

    name = "wfq"

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._seq = itertools.count(1)
        self._weights = dict(weights or {})
        self._heap: List[Tuple[float, int, Job]] = []
        self._last_finish: Dict[str, float] = {}
        self._vtime = 0.0

    def weight_of(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def push(self, job: Job) -> None:
        tenant = job.spec.tenant
        start = max(self._vtime, self._last_finish.get(tenant, 0.0))
        finish = start + job.spec.cost / self.weight_of(tenant)
        self._last_finish[tenant] = finish
        heapq.heappush(self._heap, (finish, next(self._seq), job))

    def peek(self) -> Optional[Job]:
        return self._heap[0][2] if self._heap else None

    def pop(self) -> Optional[Job]:
        if not self._heap:
            return None
        finish, _seq, job = heapq.heappop(self._heap)
        # SCFQ: the system's virtual clock follows the tag in service.
        self._vtime = max(self._vtime, finish)
        return job

    def __len__(self) -> int:
        return len(self._heap)


SCHEDULER_POLICIES = ("fifo", "wfq")


def make_scheduler(policy: str,
                   weights: Optional[Dict[str, float]] = None) -> Scheduler:
    """Build a scheduler by policy name (tenant weights feed WFQ only)."""
    if policy == "fifo":
        return FIFOScheduler()
    if policy == "wfq":
        return WFQScheduler(weights)
    raise ValueError(
        "unknown scheduler policy %r (one of %s)"
        % (policy, ", ".join(SCHEDULER_POLICIES)))
