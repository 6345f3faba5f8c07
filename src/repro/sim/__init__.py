"""Discrete-event simulation kernel.

A small, SimPy-flavoured kernel written from scratch.  Time is an integer
number of nanoseconds.  Concurrency is expressed as *fibers*: Python
generators that yield :class:`~repro.sim.engine.Event` objects and are resumed
when those events trigger.  This mirrors Biscuit's cooperative multithreading
(Section IV-B of the paper): context switches happen only at explicit yield
points, which is exactly the semantics of a generator-based fiber.
"""

from repro.sim.engine import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
    any_of,
    backoff,
)
from repro.sim.queues import BoundedQueue, QueueClosed
from repro.sim.resources import Resource
from repro.sim.units import GIB, KIB, MIB, ms_to_ns, ns_to_s, ns_to_us, s_to_ns, us_to_ns

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "all_of",
    "any_of",
    "backoff",
    "BoundedQueue",
    "QueueClosed",
    "Resource",
    "KIB",
    "MIB",
    "GIB",
    "us_to_ns",
    "ms_to_ns",
    "s_to_ns",
    "ns_to_us",
    "ns_to_s",
]
