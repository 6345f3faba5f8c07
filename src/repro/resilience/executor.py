"""The resilient scan driver: retry, resume, hedge, fail over.

One :class:`ResilientScanDriver` owns the recovery datapath for NDP scans
on a (possibly replicated) :class:`~repro.host.platform.System`:

* every attempt runs the checkpoint-marker protocol
  (:mod:`repro.resilience.checkpoint` + ``ScanFilter``'s tagged emission),
  so a failed attempt resumes from the last committed chunk instead of
  restarting the scan;
* a :class:`~repro.resilience.hedge.HedgePolicy` (optional) fires a backup
  attempt against the replica device when the primary outlives its
  p99-derived deadline, and the losing leg is *cancelled* — both legs, the
  interrupt fix in :meth:`repro.sim.engine.Process.interrupt` guarantees no
  doubly-granted channel/die is leaked;
* a whole-device crash (:class:`~repro.core.errors.DeviceCrashedError`)
  fails over: the SSDlet module is re-loaded on the replica (through the
  same graph-verified ``Application.start`` path) and the stream resumes
  from the checkpoints.

Every attempt re-draws its faults (injection is per read attempt), and
storm windows are finite, so a retry budget whose cumulative backoff
outlasts the storm converges to the fault-free answer — which is what the
differential suite asserts byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.core.errors import DeviceCrashedError, DeviceError
from repro.db.ndp import NDPContext, ScanSpec, run_offloaded_scan
from repro.instrument.metrics import Counters, MetricsRegistry
from repro.resilience.checkpoint import ScanCheckpoint
from repro.resilience.hedge import HedgePolicy, hedged_race
from repro.resilience.recovery import RecoveryTracker
from repro.sim.engine import backoff
from repro.sim.units import us_to_ns

__all__ = [
    "ResilienceStats",
    "ResilientScanDriver",
    "RetryPolicy",
    "ScanSpec",
]


RETRY_GROWTH = 2.0  # exponential backoff multiplier per retry
MAX_BACKOFF_US = 25000.0  # cap on any one retry delay


@dataclass
class RetryPolicy:
    """How hard to fight for an operation before giving up — and the one
    place ``base * growth^(n-1)`` is computed (the scan driver and the
    cluster's shard RPC ask it)."""

    retry_limit: int = 8  # failed attempts before the error propagates
    backoff_us: float = 500.0  # first retry delay
    checkpoint_pages: int = 4  # commit granularity (pages per marker)
    failover: bool = True  # alternate devices across retries

    def backoff_ns(self, attempt: int) -> int:
        delay_us = self.backoff_us * (RETRY_GROWTH ** (attempt - 1))
        return us_to_ns(min(delay_us, MAX_BACKOFF_US))


class ResilienceStats(Counters):
    """The recovery scoreboard one driver accumulates across scans.

    Plain ``int`` attributes; the driver publishes them under
    ``resilience.*`` (the system-wide registry by default), so metrics
    sidecars carry the recovery picture.
    """

    FIELDS = (
        "scans", "retries",
        "resumes",  # attempts that started past a range's first page
        "failovers",  # retries moved to a different device
        "device_errors", "crashes_seen", "gave_up",
    )


class _AttemptFailed(Exception):
    """Internal: one attempt (possibly hedged) failed with a device error."""

    def __init__(self, error: DeviceError, trial: ScanCheckpoint):
        super().__init__(str(error))
        self.error = error
        self.trial = trial


class ResilientScanDriver:
    """Checkpointed, hedged, replica-failing-over NDP scans."""

    def __init__(
        self,
        system,
        devices: Optional[List[int]] = None,
        policy: Optional[RetryPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        recovery: Optional[RecoveryTracker] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.system = system
        self.devices = (list(devices) if devices is not None
                        else list(range(system.num_ssds)))
        if not self.devices:
            raise ValueError("need at least one device to scan")
        self.policy = policy or RetryPolicy()
        self.hedge = hedge
        self.recovery = recovery
        # Counters land in the system-wide registry (metrics sidecars) by
        # default; pass a private registry to keep a driver's scoreboard
        # separate.
        if registry is None:
            registry = system.metrics
        self.stats = ResilienceStats(registry, "resilience")
        if hedge is not None:
            registry.attach("resilience.hedge", hedge, hedge.FIELDS)
        if recovery is not None:
            registry.attach("resilience.recovery", recovery, recovery.FIELDS)
        self._contexts: Dict[int, NDPContext] = {}

    # ------------------------------------------------------------ device state
    def _context(self, device: int) -> NDPContext:
        """``device``'s NDP machinery; its module loads on first use, so a
        failover's re-load goes through the same timed path."""
        context = self._contexts.get(device)
        if context is None:
            context = self._contexts[device] = NDPContext(self.system, device)
        return context

    def _next_device(self, device: int) -> int:
        position = self.devices.index(device)
        return self.devices[(position + 1) % len(self.devices)]

    def _pick_retry_device(self, device: int) -> int:
        if not self.policy.failover or len(self.devices) < 2:
            return device
        # Alternate away from the faulted device; prefer one that is not
        # itself inside a recovery window when the tracker knows better.
        candidate = self._next_device(device)
        if self.recovery is not None:
            probe = candidate
            for _ in range(len(self.devices) - 1):
                if not self.recovery.in_recovery(probe):
                    return probe
                probe = self._next_device(probe)
        return candidate

    # ----------------------------------------------------------------- attempts
    def _attempt(self, spec: ScanSpec, device: int,
                 ckpt: ScanCheckpoint) -> Generator:
        """Fiber: run every pending range on ``device``, committing into
        ``ckpt`` as markers arrive.  Raises the first device error."""
        pending = ckpt.pending()
        if not pending:
            return
        if any(ckpt.ranges[i].committed_page > ckpt.ranges[i].first_page
               for i in pending):
            self.stats.resumes += 1
        context = self._context(device)
        mid = yield from context.hold()

        def stage(slot: int, payload, _nbytes: int) -> None:
            tag, batch, end_page = payload
            assert tag == "rows"
            ckpt.stage(pending[slot], batch)
            if end_page is not None:
                ckpt.commit(pending[slot], end_page)

        ranges = [(ckpt.ranges[i].committed_page,
                   ckpt.ranges[i].end_page - ckpt.ranges[i].committed_page)
                  for i in pending]
        yield from run_offloaded_scan(
            context.ssd, mid, "resilient-scan-d%d" % device, spec,
            ranges, stage, checkpoint_pages=self.policy.checkpoint_pages)

    def _note_device_error(self, device: int, error: DeviceError) -> None:
        self.stats.device_errors += 1
        if isinstance(error, DeviceCrashedError):
            self.stats.crashes_seen += 1
        if self.recovery is not None:
            self.recovery.note_fault(device)

    def _hedged_attempt(self, spec: ScanSpec, device: int,
                        base: ScanCheckpoint) -> Generator:
        """Fiber: primary attempt with a deadline-fired backup leg, each on
        its own clone of ``base``.

        Returns the winning leg's clone; raises :class:`_AttemptFailed`
        (carrying the primary's clone) when the primary dies before the
        deadline or both legs die.
        """
        trials: Dict[int, ScanCheckpoint] = {}

        def leg(dev: int) -> Generator:
            trial = trials[dev] = base.clone()
            yield from self._attempt(spec, dev, trial)
            return trial

        try:
            return (yield from hedged_race(
                self.system.sim, self.hedge,
                [device, self._next_device(device)], leg, "d",
                early_failure="raise", both_failed="last",
                on_leg_failed=self._note_device_error))
        except DeviceError as exc:
            raise _AttemptFailed(exc, trials[device]) from exc

    # --------------------------------------------------------------------- scan
    def scan(self, spec: ScanSpec,
             primary: Optional[int] = None) -> Generator:
        """Fiber: the surviving projected rows, exactly once, despite faults.

        Raises the last :class:`DeviceError` only after the retry budget is
        exhausted (``RetryPolicy.retry_limit`` failed attempts).
        """
        sim = self.system.sim
        trace = sim.trace
        scan_start_ns = sim.now if trace is not None else 0
        self.stats.scans += 1
        ckpt = ScanCheckpoint.for_pages(spec.num_pages, spec.workers)
        device = primary if primary is not None else self.devices[0]
        failures = 0
        while not ckpt.done:
            try:
                if self.hedge is not None and len(self.devices) > 1:
                    winner = yield from self._hedged_attempt(spec, device, ckpt)
                    ckpt.adopt(winner)
                else:
                    trial = ckpt.clone()
                    try:
                        yield from self._attempt(spec, device, trial)
                    except DeviceError as exc:
                        raise _AttemptFailed(exc, trial) from exc
                    ckpt.adopt(trial)
            except _AttemptFailed as fail:
                # Keep the commits the dead attempt made before it failed —
                # that is the resume machinery paying off — but not the rows
                # it staged past its last marker.
                fail.trial.abort()
                ckpt.adopt(fail.trial)
                error = fail.error
                self._note_device_error(device, error)
                failures += 1
                if failures > self.policy.retry_limit:
                    self.stats.gave_up += 1
                    raise error
                self.stats.retries += 1
                retry_device = self._pick_retry_device(device)
                if retry_device != device:
                    self.stats.failovers += 1
                    device = retry_device
                yield from backoff(sim, self.policy.backoff_ns(failures),
                                   "resil", "backoff", "host/resil",
                                   attempt=failures)
        if trace is not None:
            trace.complete("resil", "scan", "host/resil", scan_start_ns,
                           pages=spec.num_pages)
        return ckpt.collect()

    def counters(self) -> Dict[str, int]:
        merged = self.stats.as_dict()
        if self.hedge is not None:
            hedge = self.hedge.counters()
            # Both scoreboards track failovers (device-switch retries here,
            # hedge-covered primary failures there): report the sum.
            merged["failovers"] += hedge.pop("failovers")
            merged.update(hedge)
        if self.recovery is not None:
            merged.update(self.recovery.counters())
        return merged
