"""Typed I/O ports over bounded queues (Section III-C and IV-B).

A port is one of two classes, :class:`OutputPort` and :class:`InputPort`,
whoever holds it.  What a transfer costs is a property of the *connection*
— its :class:`PortKind`, which follows from where its two ends run — and of
the :class:`Side` (host or device) that does the endpoint's share of the
work.  The kinds (the paper's three plus host-local), their wiring rules
and the kind -> charge table are in DESIGN.md, "Tasks, ports and links";
the round trips are Table II's: inter-SSDlet 31.0 µs, inter-application
10.7 µs, D2H 130.1 µs, H2D 301.6 µs.

Every connection is one bounded queue; producers that finish close their
side, and a drained, fully-closed queue raises :class:`PortClosed` to
consumers — that is how SSDlet pipelines terminate.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import (
    NotSerializableError,
    PortClosed,
    PortConnectionError,
    TypeMismatchError,
)
from repro.core.types import (
    check_value,
    deserialize,
    is_serializable,
    serialize,
    spec_name,
)
from repro.sim.engine import Simulator
from repro.sim.queues import BoundedQueue, QueueClosed
from repro.sim.units import us_to_ns

__all__ = [
    "PortKind",
    "Side",
    "Connection",
    "OutputPort",
    "InputPort",
    "make_ports",
    "connect_ports",
]


class PortKind(enum.Enum):
    INTER_SSDLET = "inter-ssdlet"
    INTER_APP = "inter-application"
    HOST_DEVICE = "host-to-device"
    HOST_LOCAL = "host-local"

    @property
    def packet_transport(self) -> bool:
        """The connection leaves an address space: Packet (serializable)
        data only and strictly SPSC.  The other two kinds pass values
        through unserialized and may share one queue (SPMC/MPSC; safe
        without locks because an application's fibers share a core)."""
        return self in (PortKind.HOST_DEVICE, PortKind.INTER_APP)


#: Host-local queue costs: a user-level handoff between host fibers.
HOST_LOCAL_PUT_US = 0.5
HOST_LOCAL_SCHEDULE_US = 2.0


class Side(NamedTuple):
    """Where an endpoint's share of a transfer runs — the host's or the
    device's.  A task's side is this value, not its port classes."""

    #: compute(us) -> fiber occupying this side's CPU: a host core
    #: (memory-bound), or the owning application's device core.
    compute: Callable[[float], Generator]
    #: interface(nbytes) -> fiber crossing the host interface away from
    #: this side (H2D from the host, D2H from the device).
    interface: Callable[[int], Generator]
    #: This side's channel-manager work to send / receive one item over a
    #: host-to-device connection (µs).
    sender_us: float
    receiver_us: float


class Connection:
    """One port-to-port link: a bounded queue plus type/wiring rules."""

    def __init__(
        self,
        sim: Simulator,
        kind: PortKind,
        dtype: Any,
        capacity: int = 16,
        name: str = "",
    ):
        self.packet_transport = kind.packet_transport  # read per item
        if self.packet_transport and not is_serializable(dtype):
            raise NotSerializableError(
                "%s ports carry Packet data; %s is not serializable"
                % (kind.value, spec_name(dtype))
            )
        self.sim = sim
        self.kind = kind
        self.dtype = dtype
        self.name = name
        self.queue = BoundedQueue(sim, capacity=capacity, name=name)
        self.producers = 0
        self.consumers = 0
        self._open_producers = 0
        self.items_transferred = 0

    # ---------------------------------------------------------------- wiring
    def attach_producer(self) -> None:
        if self.packet_transport and self.producers >= 1:
            raise PortConnectionError(
                "%s ports allow a single producer (SPSC)" % self.kind.value
            )
        self.producers += 1
        self._open_producers += 1

    def attach_consumer(self) -> None:
        if self.packet_transport and self.consumers >= 1:
            raise PortConnectionError(
                "%s ports allow a single consumer (SPSC)" % self.kind.value
            )
        self.consumers += 1

    def producer_closed(self) -> None:
        """A producer finished; the queue closes when the last one does."""
        if self._open_producers <= 0:
            return
        self._open_producers -= 1
        if self._open_producers == 0:
            self.queue.close()

    # --------------------------------------------------------------- transfer
    def encode(self, value: Any) -> Any:
        """Type-check and (for Packet-transport kinds) serialize a value."""
        check_value(value, self.dtype)
        if not self.packet_transport:
            return value
        return serialize(value, self.dtype)

    def decode(self, item: Any) -> Any:
        if not self.packet_transport:
            return item
        return deserialize(item, self.dtype)


class _Port:
    """Shared endpoint state; ``side`` does this end's share of the work."""

    def __init__(self, sim: Simulator, owner_name: str, index: int, dtype: Any,
                 side: Side, config: Any):
        self.sim = sim
        self.owner_name = owner_name
        self.index = index
        self.dtype = dtype
        self._side = side
        self._config = config
        # Trace track: host-side owners are named "host:<app>..."; fold the
        # colon into the path so their events group under a "host" process.
        self.trace_track = owner_name.replace(":", "/", 1)
        self.connection: Optional[Connection] = None
        self._connect_waiters: list = []

    def _ensure_connection(self) -> Generator:
        """Fiber: block until the port is wired (an inter-application peer
        may connect it after this task already started)."""
        while self.connection is None:
            event = self.sim.event()
            self._connect_waiters.append(event)
            yield event
        return self.connection

    def _notify_connected(self) -> None:
        waiters, self._connect_waiters = self._connect_waiters, []
        for event in waiters:
            event.succeed()


class OutputPort(_Port):
    """Producer endpoint of a connection."""

    def __init__(self, sim: Simulator, owner_name: str, index: int, dtype: Any,
                 side: Side, config: Any):
        super().__init__(sim, owner_name, index, dtype, side, config)
        self._closed = False

    def put(self, value: Any) -> Generator:
        """Fiber: send one value downstream (blocks on a full queue)."""
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        connection = yield from self._ensure_connection()
        if self._closed:
            raise PortClosed("put on closed output port of %s" % self.owner_name)
        item = connection.encode(value)
        kind = connection.kind
        side = self._side
        if kind is PortKind.HOST_DEVICE:
            # This side's channel-manager sender work, then the interface
            # crossing towards the other side.
            yield from side.compute(side.sender_us)
            yield from side.interface(len(item))
        elif kind is PortKind.INTER_SSDLET:
            yield from side.compute(self._config.port_type_abstraction_us)
        elif kind is PortKind.HOST_LOCAL:
            # Same address space: a user-level queue handoff.
            yield from side.compute(HOST_LOCAL_PUT_US)
        # INTER_APP: bare serialization, fiber handoff only.
        yield connection.queue.put(item)
        connection.items_transferred += 1
        if trace is not None:
            trace.complete("port", "put", self.trace_track, start_ns,
                           port=self.index, kind=kind.value)

    def close(self) -> None:
        """Signal end-of-stream to the consumer side."""
        if self._closed:
            return
        self._closed = True
        if self.connection is not None:
            self.connection.producer_closed()


class InputPort(_Port):
    """Consumer endpoint of a connection."""

    def get(self) -> Generator:
        """Fiber: receive one value; raises :class:`PortClosed` at stream end."""
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        connection = yield from self._ensure_connection()
        try:
            item = yield connection.queue.get()
        except QueueClosed:
            raise PortClosed(
                "input port %d of %s: all producers finished"
                % (self.index, self.owner_name)
            ) from None
        kind = connection.kind
        if kind is PortKind.HOST_DEVICE:
            # The receiving channel manager does about twice the sender's
            # work — on the slow device CPU when this side is the device,
            # which is what makes H2D the expensive direction.
            yield from self._side.compute(self._side.receiver_us)
        yield connection.sim.timeout(us_to_ns(
            HOST_LOCAL_SCHEDULE_US if kind is PortKind.HOST_LOCAL
            else self._config.fiber_schedule_us))
        if trace is not None:
            trace.complete("port", "get", self.trace_track, start_ns,
                           port=self.index, kind=kind.value)
        return connection.decode(item)

    def get_opt(self) -> Generator:
        """Fiber: like :meth:`get` but returns None at end-of-stream."""
        try:
            value = yield from self.get()
        except PortClosed:
            return None
        return value

    def drain(self) -> Generator:
        """Fiber: collect every remaining value into a list."""
        values = []
        while True:
            try:
                values.append((yield from self.get()))
            except PortClosed:
                return values


def make_ports(
    sim: Simulator,
    owner_name: str,
    side: Side,
    config: Any,
    in_types: Sequence[Any] = (),
    out_types: Sequence[Any] = (),
    first_index: int = 0,
) -> Tuple[Tuple[InputPort, ...], Tuple[OutputPort, ...]]:
    """Build ``owner_name``'s endpoints — the only place ports are made:
    ``(input ports, output ports)``, one per declared type, numbered from
    ``first_index``."""
    return (
        tuple(InputPort(sim, owner_name, first_index + i, dtype, side, config)
              for i, dtype in enumerate(in_types)),
        tuple(OutputPort(sim, owner_name, first_index + i, dtype, side, config)
              for i, dtype in enumerate(out_types)),
    )


def connect_ports(out_port: OutputPort, in_port: InputPort,
                  connection: Connection) -> None:
    """Wire two endpoints to a connection after validating types."""
    if out_port.dtype != in_port.dtype:
        raise TypeMismatchError(
            "cannot connect %s output to %s input"
            % (spec_name(out_port.dtype), spec_name(in_port.dtype))
        )
    if out_port.dtype != connection.dtype:
        raise TypeMismatchError("connection type differs from port types")
    # An endpoint joins exactly one connection; SPMC/MPSC reuse the same
    # connection (one shared queue) across several endpoints.
    if out_port.connection is None:
        connection.attach_producer()
        out_port.connection = connection
        out_port._notify_connected()
        if out_port._closed:
            # The producer finished before the peer application wired the
            # link; propagate its end-of-stream now.
            connection.producer_closed()
    elif out_port.connection is not connection:
        raise PortConnectionError("output port already connected elsewhere")
    if in_port.connection is None:
        connection.attach_consumer()
        in_port.connection = connection
        in_port._notify_connected()
    elif in_port.connection is not connection:
        raise PortConnectionError("input port already connected elsewhere")
