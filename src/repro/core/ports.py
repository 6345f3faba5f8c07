"""Typed I/O ports over bounded queues (Section III-C and IV-B).

The paper's three port kinds, plus a host-local kind for host tasks:

* **inter-SSDlet** — between SSDlets of one Application.  General types,
  SPSC/SPMC/MPSC (a shared queue; safe without locks because all fibers of
  an application run on the same core).  Round trip = type (de)abstraction
  (20.3 µs of device CPU) + fiber schedule (10.7 µs) = 31.0 µs (Table II).
* **inter-application** — between SSDlets of different Applications.  Packet
  (or explicitly serializable) data, SPSC only.  Round trip = fiber schedule
  = 10.7 µs.
* **host-to-device** — between a host program and an SSDlet.  Packet-only,
  SPSC only.  Asymmetric: D2H = 130.1 µs, H2D = 301.6 µs — the receiving
  channel manager does about twice the sender's work, and the device CPU is
  much slower, so host→device is the expensive direction (Table II).
* **host-local** — between two host tasks: a user-level queue handoff in
  shared memory (general types, SPMC/MPSC allowed).

Every connection is one bounded queue; producers that finish close their
side, and a drained, fully-closed queue raises :class:`PortClosed` to
consumers — that is how SSDlet pipelines terminate.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional

from repro.core.errors import (
    NotSerializableError,
    PortClosed,
    PortConnectionError,
    TypeMismatchError,
)
from repro.core.types import (
    Packet,
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
    "Connection",
    "DeviceOutputPort",
    "DeviceInputPort",
    "HostOutputPort",
    "HostInputPort",
]


class PortKind(enum.Enum):
    INTER_SSDLET = "inter-ssdlet"
    INTER_APP = "inter-application"
    HOST_DEVICE = "host-to-device"
    HOST_LOCAL = "host-local"


#: Host-local queue costs: a user-level handoff between host fibers.
#: (HOST_LOCAL and INTER_SSDLET are the same-address-space kinds: values
#: pass through unserialized and shared queues allow SPMC/MPSC.)
HOST_LOCAL_PUT_US = 0.5
HOST_LOCAL_SCHEDULE_US = 2.0


#: Fiber factory signatures used by ports:
#:   device_compute(us)  -> fiber occupying the owning app's device core
#:   host_compute(us)    -> fiber occupying a host core (memory-bound)
#:   interface(nbytes)   -> fiber crossing the host interface
ComputeFn = Callable[[float], Generator]
InterfaceFn = Callable[[int], Generator]


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
        if (kind not in (PortKind.INTER_SSDLET, PortKind.HOST_LOCAL)
                and not is_serializable(dtype)):
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
        self.bytes_transferred = 0

    # ---------------------------------------------------------------- wiring
    def attach_producer(self) -> None:
        if (self.kind not in (PortKind.INTER_SSDLET, PortKind.HOST_LOCAL)
                and self.producers >= 1):
            raise PortConnectionError(
                "%s ports allow a single producer (SPSC)" % self.kind.value
            )
        self.producers += 1
        self._open_producers += 1

    def attach_consumer(self) -> None:
        if (self.kind not in (PortKind.INTER_SSDLET, PortKind.HOST_LOCAL)
                and self.consumers >= 1):
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
        if self.kind in (PortKind.INTER_SSDLET, PortKind.HOST_LOCAL):
            return value
        packet = serialize(value, self.dtype)
        self.bytes_transferred += len(packet)
        return packet

    def decode(self, item: Any) -> Any:
        if self.kind in (PortKind.INTER_SSDLET, PortKind.HOST_LOCAL):
            return item
        return deserialize(item, self.dtype)


class _PortBase:
    """Shared endpoint state.

    ``compute`` occupies the owner's side: the application's device core
    for an SSDlet's port, a host core for a host-side one.
    """

    def __init__(self, sim: Simulator, owner_name: str, index: int, dtype: Any,
                 compute: ComputeFn, config):
        self.sim = sim
        self.owner_name = owner_name
        self.index = index
        self.dtype = dtype
        self._compute = compute
        self._config = config
        # Trace track: host-side owners are named "host:<app>..."; fold the
        # colon into the path so their events group under a "host" process.
        self.trace_track = owner_name.replace(":", "/", 1)
        self.connection: Optional[Connection] = None
        self._connect_waiters: list = []

    @property
    def connected(self) -> bool:
        return self.connection is not None

    def _ensure_connection(self) -> Generator:
        """Fiber: block until the port is wired (an inter-application peer
        may connect it after this SSDlet already started)."""
        while self.connection is None:
            event = self.sim.event()
            self._connect_waiters.append(event)
            yield event
        return self.connection

    def _notify_connected(self) -> None:
        waiters, self._connect_waiters = self._connect_waiters, []
        for event in waiters:
            event.succeed()


class _OutputPort(_PortBase):
    """Producer endpoint: ``put`` is the subclass's; closing is shared."""

    def __init__(self, sim: Simulator, owner_name: str, index: int, dtype: Any,
                 compute: ComputeFn, interface: InterfaceFn, config):
        super().__init__(sim, owner_name, index, dtype, compute, config)
        self._interface = interface
        self._closed = False

    def close(self) -> None:
        """Signal end-of-stream to the consumer side."""
        if self._closed:
            return
        self._closed = True
        if self.connection is not None:
            self.connection.producer_closed()


class _InputPort(_PortBase):
    """Consumer endpoint: ``get`` is the subclass's; the loops over it are
    shared."""

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


class DeviceOutputPort(_OutputPort):
    """An SSDlet's output port."""

    def put(self, value: Any) -> Generator:
        """Fiber: send one value downstream (blocks on a full queue)."""
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        connection = yield from self._ensure_connection()
        if self._closed:
            raise PortClosed("put on closed output port of %s" % self.owner_name)
        item = connection.encode(value)
        if connection.kind is PortKind.INTER_SSDLET:
            yield from self._compute(self._config.port_type_abstraction_us)
        elif connection.kind is PortKind.HOST_DEVICE:
            # Device → host: device-side channel-manager sender work, then
            # the interface crossing.
            yield from self._compute(self._config.d2h_device_sender_us)
            yield from self._interface(len(item))
        # INTER_APP: bare serialization, fiber handoff only.
        yield connection.queue.put(item)
        connection.items_transferred += 1
        if trace is not None:
            trace.complete("port", "put", self.trace_track, start_ns,
                           port=self.index, kind=connection.kind.value)


class DeviceInputPort(_InputPort):
    """An SSDlet's input port."""

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
        if connection.kind is PortKind.HOST_DEVICE:
            # Host → device: the device-side channel manager does the heavy
            # receive work on the slow device CPU.
            yield from self._compute(self._config.h2d_device_receiver_us)
        yield connection.sim.timeout(us_to_ns(self._config.fiber_schedule_us))
        if trace is not None:
            trace.complete("port", "get", self.trace_track, start_ns,
                           port=self.index, kind=connection.kind.value)
        return connection.decode(item)


class HostOutputPort(_OutputPort):
    """Host-side producer endpoint of a host-to-device connection."""

    def put(self, value: Any) -> Generator:
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        connection = yield from self._ensure_connection()
        if self._closed:
            raise PortClosed("put on closed host output port")
        item = connection.encode(value)
        if connection.kind is PortKind.HOST_LOCAL:
            # Same address space: a user-level queue handoff.
            yield from self._compute(HOST_LOCAL_PUT_US)
        else:
            yield from self._compute(self._config.h2d_host_sender_us)
            yield from self._interface(len(item))
        yield connection.queue.put(item)
        connection.items_transferred += 1
        if trace is not None:
            trace.complete("port", "put", self.trace_track, start_ns,
                           port=self.index, kind=connection.kind.value)


class HostInputPort(_InputPort):
    """Host-side consumer endpoint of a host-to-device connection."""

    def get(self) -> Generator:
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        connection = yield from self._ensure_connection()
        try:
            item = yield connection.queue.get()
        except QueueClosed:
            raise PortClosed("host port: stream ended") from None
        if connection.kind is PortKind.HOST_LOCAL:
            yield connection.sim.timeout(us_to_ns(HOST_LOCAL_SCHEDULE_US))
        else:
            yield from self._compute(self._config.d2h_host_receiver_us)
            yield connection.sim.timeout(us_to_ns(self._config.fiber_schedule_us))
        if trace is not None:
            trace.complete("port", "get", self.trace_track, start_ns,
                           port=self.index, kind=connection.kind.value)
        return connection.decode(item)


def connect_ports(out_port, in_port, connection: Connection) -> None:
    """Wire two endpoints to a connection after validating types."""
    if not _types_equal(out_port.dtype, in_port.dtype):
        raise TypeMismatchError(
            "cannot connect %s output to %s input"
            % (spec_name(out_port.dtype), spec_name(in_port.dtype))
        )
    if not _types_equal(out_port.dtype, connection.dtype):
        raise TypeMismatchError("connection type differs from port types")
    # An endpoint joins exactly one connection; SPMC/MPSC reuse the same
    # connection (one shared queue) across several endpoints.
    if out_port.connection is None:
        connection.attach_producer()
        out_port.connection = connection
        out_port._notify_connected()
        if getattr(out_port, "_closed", False):
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


def _types_equal(a: Any, b: Any) -> bool:
    return a == b
