"""Query resilience: checkpointed scans, hedged reads, replica failover.

The machinery that lets an in-flight NDP SQL query survive device faults:

* :mod:`repro.resilience.checkpoint` — chunk-granular scan checkpoints with
  an exactly-once commit protocol (stage on emit, commit on marker).
* :mod:`repro.resilience.hedge` — p99-derived hedge deadlines and the
  win/loss bookkeeping for hedged request legs.
* :mod:`repro.resilience.recovery` — per-device recovery windows consulted
  when the scan driver picks a retry device.
* :mod:`repro.resilience.executor` — the resilient scan driver: retry with
  backoff, resume from checkpoints, hedge against a replica, fail over on
  whole-device crashes.
"""

from repro.resilience.checkpoint import RangeCheckpoint, ScanCheckpoint
from repro.resilience.executor import (
    ResilienceStats,
    ResilientScanDriver,
    RetryPolicy,
    ScanSpec,
)
from repro.resilience.hedge import HedgePolicy
from repro.resilience.recovery import RecoveryTracker

__all__ = [
    "HedgePolicy",
    "RangeCheckpoint",
    "RecoveryTracker",
    "ResilienceStats",
    "ResilientScanDriver",
    "RetryPolicy",
    "ScanCheckpoint",
    "ScanSpec",
]
