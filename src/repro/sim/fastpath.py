"""Fused NAND timing: the simulator's batched event fast path.

The per-event NAND read protocol costs ~6 heap events per physical page
(process bootstrap, die grant, sense timeout, bus grant, transfer timeout,
process completion).  On a channel with no per-event traffic those events
are pure mechanism: the die pool is a counting resource with FIFO grants and
the bus is serialized, so the whole schedule of a batch is a closed-form
function of the channel's queue state.  The fast path computes that schedule
analytically (:class:`FusedTimingCalculator`), keeps the pending plans per
channel (:class:`ChannelFastPath`), and retires an entire batch through a
single timer event — bit-identical completion times, a fraction of the heap
traffic.  Only multi-stripe channel commands fuse: a one-page read is one
die hold and one bus hold, cheaper per-event than as a plan.  The
calculator takes its channel's tR and bus transfer table at construction,
so a plan's transfer times come from the same table as a per-event read's.

Determinism and equivalence rest on three invariants:

* **Same schedule.**  The calculator replays the exact semantics of the
  per-event protocol: op *i* of a batch senses on the i-th earliest-free die
  (``sense = max(arrival, die_free)``), then queues FIFO for the bus
  (``bus = max(sense_end, bus_free)``).  Because completions are
  bus-serialized they are monotone in op order, so the die pool's release
  order equals op order and one sorted deque models the whole pool.
* **Fusion only without interference.**  A batch fuses only when the channel
  has no per-event traffic (no held or queued die/bus units) or when all
  in-flight work is itself fused (chaining), when tracing is off, and when
  no fault was drawn for any op.  Anything else runs per-event.
* **Materialization.**  When per-event traffic *arrives* on a fused channel
  (a slow read, a program, an erase), the plans de-fuse before the
  interferer touches a resource: finished ops are settled, in-flight ops
  re-acquire their real die/bus holds and FIFO queue positions
  synchronously, and remnant fibers replay each op's remaining protocol.
  Remnants sit ahead of the interferer in every FIFO, so their completion
  times are exactly the analytic ones, and the interferer sees precisely
  the resource state the per-event path would have produced.

Schedules are memoized in arrival-relative coordinates keyed on the
channel's queue shape and the batch's transfer sizes; under saturation
every batch meets the channel in the same relative state, so the steady
state costs one dict lookup per batch — no per-op work at all.  Each cache
entry carries the batch's precomputed die/bus busy integrals, deposited via
``Resource.backfill_busy`` when the plan settles; until then the die pool's
and bus's ``pending_area`` report the share accrued so far, read off the
plan's schedule, so ``busy_area()`` sampled mid-plan (the power meter, the
utilization monitor) equals the per-event path's at every instant.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.engine import Event, Simulator, all_of
from repro.sim.resources import Resource
from repro.sim.units import TransferTimes

__all__ = ["ChannelFastPath", "FusedTimingCalculator", "FusedOp"]

#: Relative per-op schedule: (sense_start, sense_end, bus_start, completion).
_RelTimes = Tuple[Tuple[int, int, int, int], ...]


class FusedOp:
    """One in-flight page read, reconstructed at materialization time."""

    __slots__ = ("transfer_bytes", "transfer_time_ns", "sense_start",
                 "sense_end", "bus_start", "completion")

    def __init__(self, transfer_bytes: int, sense_start: int, sense_end: int,
                 bus_start: int, completion: int):
        self.transfer_bytes = transfer_bytes
        self.transfer_time_ns = completion - bus_start
        self.sense_start = sense_start
        self.sense_end = sense_end
        self.bus_start = bus_start
        self.completion = completion


class FusedTimingCalculator:
    """Closed-form, memoized schedule for a run of page reads on one
    channel: ``sense_ns`` is its tR, ``bus_ns`` its bus transfer table."""

    #: Memoized relative schedules; cleared wholesale when full so memory
    #: stays bounded without recency bookkeeping (which would make cache
    #: state depend on workload order).
    CACHE_LIMIT = 4096

    def __init__(self, sense_ns: int, bus_ns: TransferTimes) -> None:
        self.sense_ns = sense_ns
        self.bus_ns = bus_ns
        self._cache: Dict[tuple, tuple] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def schedule(self, now: int, die_free: Deque[int], bus_free: int,
                 sizes: Tuple[int, ...]) -> Tuple[_RelTimes, int, int, int]:
        """Schedule ``sizes`` (transfer bytes, arrival order) at ``now``.

        ``die_free`` holds the absolute time each die-pool unit frees
        (sorted ascending — completions are bus-serialized, hence monotone)
        and is advanced in place.  Returns ``(rel_times, new_bus_free,
        dies_area, bus_area)`` where ``rel_times`` is relative to ``now``
        and the areas are the batch's exact busy integrals.
        """
        if die_free[-1] <= now:
            # Idle channel (every one-page command on a quiet device): the
            # deque is sorted, so all dies are free — no per-die generator.
            rel_die: Tuple[int, ...] = (0,) * len(die_free)
        else:
            rel_die = tuple(t - now if t > now else 0 for t in die_free)
        rel_bus = bus_free - now if bus_free > now else 0
        key = (rel_die, rel_bus, sizes)
        entry = self._cache.get(key)
        if entry is None:
            self.cache_misses += 1
            sense_ns, bus_ns = self.sense_ns, self.bus_ns
            work = deque(rel_die)
            bus = rel_bus
            rel_times: List[Tuple[int, int, int, int]] = []
            dies_area = 0
            for size in sizes:
                start = work.popleft()
                sense_end = start + sense_ns
                bus_start = sense_end if sense_end > bus else bus
                completion = bus_start + bus_ns[size]
                bus = completion
                work.append(completion)
                rel_times.append((start, sense_end, bus_start, completion))
                dies_area += completion - start
            # The bus is held exactly for each transfer, so its integral is
            # the summed transfer time.
            bus_area = sum(c - b for (_s0, _s1, b, c) in rel_times)
            entry = (tuple(rel_times), tuple(work), bus, dies_area, bus_area)
            if len(self._cache) >= self.CACHE_LIMIT:
                self._cache.clear()
            self._cache[key] = entry
        else:
            self.cache_hits += 1
        rel_times_out, die_after, bus_after, dies_area, bus_area = entry
        die_free.clear()
        die_free.extend([now + t for t in die_after])
        return rel_times_out, now + bus_after, dies_area, bus_area


class _FusedBatch:
    """One fused channel command and the event its dispatcher awaits."""

    __slots__ = ("base_ns", "sizes", "rel_times", "dies_area", "bus_area",
                 "total_bytes", "completion", "done")

    def __init__(self, base_ns: int, sizes: Tuple[int, ...],
                 rel_times: _RelTimes, dies_area: int, bus_area: int,
                 completion: Event):
        self.base_ns = base_ns
        self.sizes = sizes
        self.rel_times = rel_times
        self.dies_area = dies_area
        self.bus_area = bus_area
        self.total_bytes = sum(sizes)
        self.completion = completion
        self.done = False


class ChannelFastPath:
    """Analytic stand-in for one channel's die pool and bus.

    Owned by :class:`repro.ssd.nand.Channel`, which passes its tR and bus
    transfer table once; ``on_complete(bytes, reads)`` charges the
    channel's byte/read counters for settled work.
    """

    def __init__(self, sim: Simulator, dies: Resource, bus: Resource,
                 sense_ns: int, bus_ns: TransferTimes, on_complete) -> None:
        self.sim = sim
        self.dies = dies
        self.bus = bus
        self._on_complete = on_complete
        self.calculator = FusedTimingCalculator(sense_ns, bus_ns)
        self._die_free: Deque[int] = deque()
        self._bus_free = 0
        self._batches: List[_FusedBatch] = []
        dies.pending_area = self._dies_in_flight
        bus.pending_area = self._bus_in_flight
        self.fused_batches = 0
        self.fused_pages = 0
        self.materializations = 0

    @property
    def active(self) -> bool:
        """True while at least one fused plan is in flight."""
        return bool(self._batches)

    def counters(self) -> Dict[str, int]:
        return {
            "fused_batches": self.fused_batches,
            "fused_pages": self.fused_pages,
            "materializations": self.materializations,
            "timing_cache_hits": self.calculator.cache_hits,
            "timing_cache_misses": self.calculator.cache_misses,
        }

    def _dies_in_flight(self) -> int:
        # An op holds a die from its sense start to its completion.
        return self._in_flight_area(0)

    def _bus_in_flight(self) -> int:
        # ... and the bus from its transfer start to its completion.
        return self._in_flight_area(2)

    def _in_flight_area(self, start: int) -> int:
        """Unit·ns the in-flight plans' ops have held up to now, from
        schedule column ``start`` to their completion; settling deposits
        the whole area, so this reads and never books."""
        now = self.sim.now
        area = 0
        for batch in self._batches:
            elapsed = now - batch.base_ns
            for times in batch.rel_times:
                begin = times[start]
                if elapsed > begin:
                    end = times[3]
                    area += (end if end < elapsed else elapsed) - begin
        return area

    # ------------------------------------------------------------------ fuse
    def try_fuse(self, sizes: Tuple[int, ...]) -> Optional[Event]:
        """Schedule a batch of reads analytically; None when the channel
        must stay per-event (real traffic holds or awaits a die/bus unit).

        The caller guarantees no fault was drawn for any op and tracing is
        off.  Returns the event that triggers when the whole batch is done.
        """
        sim = self.sim
        now = sim.now
        if not self._batches:
            dies, bus = self.dies, self.bus
            if (dies._in_use or bus._in_use
                    or dies._waiters or bus._waiters):
                return None
            die_free = self._die_free
            die_free.clear()
            die_free.extend([now] * dies.capacity)
            self._bus_free = now
        rel_times, self._bus_free, dies_area, bus_area = (
            self.calculator.schedule(now, self._die_free, self._bus_free,
                                     sizes))
        self.fused_batches += 1
        self.fused_pages += len(sizes)
        batch = _FusedBatch(now, sizes, rel_times, dies_area, bus_area,
                            Event(sim))
        self._batches.append(batch)
        # Completions are bus-serialized, so the batch is done at its last
        # op's completion: one timer retires the whole plan.
        timer = sim.timeout(rel_times[-1][3])
        timer.add_callback(lambda _event, b=batch: self._finalize(b))
        return batch.completion

    def _finalize(self, batch: _FusedBatch) -> None:
        if batch.done:
            return  # materialized: remnant fibers own the completion now
        batch.done = True
        self._batches.remove(batch)
        self.dies.backfill_busy(batch.dies_area)
        self.bus.backfill_busy(batch.bus_area)
        self._on_complete(batch.total_bytes, len(batch.sizes))
        batch.completion.succeed()

    # -------------------------------------------------------------- de-fusion
    def materialize(self) -> None:
        """De-fuse every pending plan back to real per-event state.

        Called synchronously when per-event traffic (slow read, program,
        erase) arrives on the channel, *before* the interferer issues any
        resource request: finished ops settle, in-flight ops re-acquire
        their real holds and FIFO positions, and remnant fibers replay the
        remaining protocol.  Remnants precede the interferer in every grant
        queue, so their timings stay exactly analytic.
        """
        if not self._batches:
            return
        self.materializations += 1
        sim = self.sim
        now = sim.now
        dies, bus = self.dies, self.bus
        batches, self._batches = self._batches, []
        dies_area = 0
        bus_area = 0
        plans = []
        for batch in batches:
            batch.done = True
            base = batch.base_ns
            remnants = []
            for size, times in zip(batch.sizes, batch.rel_times):
                completion = base + times[3]
                sense_start = base + times[0]
                bus_start = base + times[2]
                if completion <= now:
                    dies_area += completion - sense_start
                    bus_area += completion - bus_start
                    self._on_complete(size, 1)
                    continue
                op = FusedOp(size, sense_start, base + times[1], bus_start,
                             completion)
                # Ops come in sense_start order, so every op recreating a
                # die hold is handled before any op that must queue for one
                # — the queued requests below therefore see the true in_use.
                die_request: Optional[Event] = None
                if op.sense_start <= now:
                    dies._account()
                    dies._in_use += 1
                    dies_area += now - op.sense_start
                else:
                    die_request = dies.request()
                bus_request: Optional[Event] = None
                bus_held = False
                if op.bus_start <= now:
                    bus._account()
                    bus._in_use += 1
                    bus_area += now - op.bus_start
                    bus_held = True
                elif op.sense_end <= now:
                    # Sense done, transfer queued: its request must sit in
                    # the bus FIFO ahead of the interferer's, so it is made
                    # here and not inside the remnant fiber.
                    bus_request = bus.request()
                remnants.append(self._remnant(op, now, die_request,
                                              bus_request, bus_held))
            plans.append((batch, remnants))
        if dies_area:
            dies.backfill_busy(dies_area)
        if bus_area:
            bus.backfill_busy(bus_area)
        for batch, remnants in plans:
            if not remnants:
                # Every op had completed; only the batch timer (later this
                # timestep) was outstanding.  Settle the dispatcher now.
                batch.completion.succeed()
                continue
            procs = [sim.process(remnant, name="defused-read")
                     for remnant in remnants]
            gathered = all_of(sim, procs)
            gathered.add_callback(
                lambda _event, b=batch: b.completion.succeed())

    def _remnant(self, op: FusedOp, start_ns: int,
                 die_request: Optional[Event], bus_request: Optional[Event],
                 bus_held: bool):
        """Fiber replaying the un-elapsed tail of one op's read protocol."""
        sim = self.sim
        if die_request is not None:
            yield die_request
            yield sim.timeout(self.calculator.sense_ns)
        elif op.sense_end > start_ns:
            yield sim.timeout(op.sense_end - start_ns)
        if bus_held:
            yield sim.timeout(op.completion - start_ns)
        else:
            if bus_request is None:
                bus_request = self.bus.request()
            # Remnant fibers replay the un-elapsed tail of an already-fused
            # plan: nothing ever interrupts them (de-fusion happens before a
            # plan flies, injector faults preclude fusing) and their events
            # cannot fail, so there is no exception path to leak on.
            yield bus_request  # repro: noqa RPR303 -- remnants are never interrupted; no exception path exists

            yield sim.timeout(op.transfer_time_ns)
        self.bus.release()
        self.dies.release()
        self._on_complete(op.transfer_bytes, 1)
