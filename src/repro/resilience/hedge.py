"""Hedge policy: when to fire the backup request against a replica.

The hedge deadline is derived from observed primary latencies: once
``WARMUP`` samples exist, the deadline is their ``QUANTILE`` (exact order
statistic over a sliding window of ``WINDOW`` — deterministic, no
interpolation) times ``MULTIPLIER``, floored so a burst of fast requests
cannot drive the deadline to zero.  Before warmup, a configured default
applies.

The policy also carries the hedging scoreboard (fired / wins / losses /
failovers) so benches and tests read one object.

:func:`hedged_race` is the one deadline race in the tree: the cluster's
hedged shard RPC and the resilient scan driver's hedged attempt both call
it (outcome table: DESIGN.md, "Recovery protocol").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.errors import DeviceError
from repro.instrument.metrics import order_statistic
from repro.sim.engine import Event, Process, Simulator, any_of
from repro.sim.units import us_to_ns

__all__ = ["HedgePolicy", "hedged_race"]

Fiber = Generator[Event, Any, Any]

QUANTILE = 0.99  # of the window's primary latencies
MULTIPLIER = 1.0  # safety factor on that order statistic
WARMUP = 8  # samples before the derived deadline replaces the default
WINDOW = 256  # sliding-window length


class HedgePolicy:
    """p99-derived hedge deadline plus win/loss bookkeeping."""

    #: The scoreboard attributes a driver publishes with ``registry.attach``.
    FIELDS = ("hedges_fired", "hedge_wins", "primary_wins", "failovers")

    def __init__(self, floor_us: float = 200.0, default_us: float = 5000.0):
        self.floor_us = floor_us
        self.default_us = default_us
        self._samples: List[float] = []
        self.hedges_fired = 0
        self.hedge_wins = 0
        self.primary_wins = 0
        self.failovers = 0

    def observe(self, latency_us: float) -> None:
        """Record one completed primary-side latency."""
        self._samples.append(latency_us)
        if len(self._samples) > WINDOW:
            del self._samples[0]

    @property
    def samples(self) -> int:
        return len(self._samples)

    def deadline_us(self) -> float:
        """Wait this long before firing the hedge leg."""
        if len(self._samples) < WARMUP:
            return max(self.floor_us, self.default_us)
        return max(self.floor_us,
                   order_statistic(sorted(self._samples), QUANTILE) * MULTIPLIER)

    def counters(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}


def _guarded(work: Fiber) -> Generator[Event, Any, Tuple[str, Any]]:
    """Fiber: a leg that reports its outcome instead of raising, so legs can
    race under ``any_of`` without failure propagation."""
    try:
        value = yield from work
    except DeviceError as exc:
        return ("err", exc)
    return ("ok", value)


def hedged_race(
    sim: Simulator,
    policy: HedgePolicy,
    copies: Sequence[int],
    start_leg: Callable[[int], Fiber],
    label: str,
    *,
    early_failure: str,
    both_failed: str,
    on_leg_failed: Optional[Callable[[int, DeviceError], None]] = None,
) -> Fiber:
    """Fiber: run ``start_leg(copies[0])``; hedge onto ``copies[1]`` once
    ``policy``'s deadline passes; return the first successful leg's value.

    The losing leg is interrupted — mid-I/O if need be — and a same-timestamp
    tie goes to the primary.  When the first leg to finish failed, the other
    is waited out.  ``early_failure`` says what a primary failure *before*
    the deadline does: ``"failover"`` fires the backup at once (callers with
    no retry loop of their own), ``"raise"`` hands the error to the caller's
    loop.  When both legs die, ``both_failed`` picks the error raised:
    ``"backup"`` (the backup's) or ``"last"`` (the last leg's to die).
    ``on_leg_failed(copy, error)`` sees each failure the race absorbs.  With
    a single copy no deadline is armed: a plain guarded call.
    """
    trace = sim.trace
    start_ns = sim.now
    absorbed = on_leg_failed or (lambda copy, error: None)

    def spawn(copy: int, fiber_role: str, scope_role: str) -> Process:
        name = "%s%d" % (label, copy)
        with sim.child_scope("%s-%s" % (scope_role, name)):
            leg = sim.process(_guarded(start_leg(copy)),
                              name="hedge-%s-%s" % (fiber_role, name))
        leg.defused = True
        return leg

    def primary_won(value: Any) -> Any:
        policy.observe((sim.now - start_ns) / 1000.0)
        policy.primary_wins += 1
        return value

    primary = spawn(copies[0], "primary", "primary")
    if len(copies) < 2:
        yield primary
    else:
        yield any_of(sim, [primary, sim.timeout(us_to_ns(policy.deadline_us()))])
    racing: List[Process] = []  # the legs the backup will race against
    if primary.triggered:
        status, value = primary.value
        if status == "ok":
            return primary_won(value)
        if len(copies) < 2 or early_failure == "raise":
            raise value
        policy.failovers += 1
        absorbed(copies[0], value)
    else:
        racing.append(primary)
        policy.hedges_fired += 1
        if trace is not None:
            # The deadline window the call sat armed but unhedged.
            trace.complete("resil", "hedge-wait", "host/resil", start_ns,
                           device=copies[0])
    backup = spawn(copies[1], "backup", "hedge")
    racing.append(backup)
    yield any_of(sim, racing)
    # Primary listed first: it wins a same-timestamp tie.
    first = next(leg for leg in racing if leg.triggered)
    status, value = first.value
    if status == "ok":
        for leg in racing:
            if leg.is_alive:
                leg.interrupt("hedge loser")
        if first is primary:
            return primary_won(value)
        policy.hedge_wins += 1
        return value
    racing.remove(first)
    if not racing:  # the failover above already absorbed the primary
        raise value
    # The first leg to finish *failed* (e.g. a fault on the replica during
    # the hedge): note it and wait the other leg out.
    absorbed(copies[0] if first is primary else copies[1], value)
    last = racing[0]
    yield last
    last_status, last_value = last.value
    if last_status != "ok":
        raise last_value if both_failed == "last" or last is backup else value
    if last is primary:
        return primary_won(last_value)
    policy.hedge_wins += 1
    policy.failovers += 1
    return last_value
