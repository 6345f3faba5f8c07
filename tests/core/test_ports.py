"""Port wiring rules and latency calibration at the unit level."""

import pytest

from repro.core.errors import (
    NotSerializableError,
    PortConnectionError,
    TypeMismatchError,
)
from repro.core.ports import (
    Connection,
    PortKind,
    Side,
    connect_ports,
    make_ports as build_ports,
)
from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig


def make_ports(sim=None, dtype=int, kind=PortKind.INTER_SSDLET):
    sim = sim or Simulator()
    config = SSDConfig()

    def compute(duration_us):
        yield sim.timeout(round(duration_us * 1000))

    def interface(nbytes):
        yield sim.timeout(0)

    side = Side(compute, interface, 0.0, 0.0)
    _, (out_port,) = build_ports(sim, "src", side, config, out_types=(dtype,))
    (in_port,), _ = build_ports(sim, "dst", side, config, in_types=(dtype,))
    connection = Connection(sim, kind, dtype)
    return sim, out_port, in_port, connection


def test_connect_and_transfer():
    sim, out_port, in_port, connection = make_ports()
    connect_ports(out_port, in_port, connection)
    received = []

    def producer():
        yield from out_port.put(7)
        out_port.close()

    def consumer():
        received.append((yield from in_port.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [7]
    assert connection.items_transferred == 1


def test_inter_ssdlet_roundtrip_is_31us():
    sim, out_port, in_port, connection = make_ports()
    connect_ports(out_port, in_port, connection)

    def program():
        start = sim.now
        yield from out_port.put(1)
        yield from in_port.get()
        return (sim.now - start) / 1e3

    assert abs(sim.run(sim.process(program())) - 31.0) < 0.1


def test_inter_app_roundtrip_is_schedule_latency():
    sim, out_port, in_port, connection = make_ports(kind=PortKind.INTER_APP)
    connect_ports(out_port, in_port, connection)

    def program():
        start = sim.now
        yield from out_port.put(1)
        yield from in_port.get()
        return (sim.now - start) / 1e3

    assert abs(sim.run(sim.process(program())) - 10.7) < 0.1


def test_type_mismatch_on_connect():
    sim = Simulator()
    _, out_port, _, _ = make_ports(sim, dtype=int)
    _, _, in_port, connection = make_ports(sim, dtype=str)
    with pytest.raises(TypeMismatchError):
        connect_ports(out_port, in_port, connection)


def test_put_rejects_wrong_value_type():
    sim, out_port, in_port, connection = make_ports()
    connect_ports(out_port, in_port, connection)
    proc = sim.process(out_port.put("not an int"))
    proc.defused = True
    sim.run()
    assert isinstance(proc.exception, TypeMismatchError)


def test_non_serializable_type_rejected_for_packet_ports():
    class Opaque:
        pass

    sim = Simulator()
    with pytest.raises(NotSerializableError):
        Connection(sim, PortKind.HOST_DEVICE, Opaque)
    with pytest.raises(NotSerializableError):
        Connection(sim, PortKind.INTER_APP, Opaque)
    # inter-SSDlet ports allow general types.
    Connection(sim, PortKind.INTER_SSDLET, Opaque)


def test_spsc_enforced_for_non_inter_ssdlet():
    sim = Simulator()
    connection = Connection(sim, PortKind.INTER_APP, int)
    connection.attach_producer()
    with pytest.raises(PortConnectionError):
        connection.attach_producer()
    connection.attach_consumer()
    with pytest.raises(PortConnectionError):
        connection.attach_consumer()


def test_inter_ssdlet_allows_mpsc():
    sim = Simulator()
    connection = Connection(sim, PortKind.INTER_SSDLET, int)
    connection.attach_producer()
    connection.attach_producer()
    connection.attach_consumer()
    connection.attach_consumer()


def test_endpoint_joins_one_connection_only():
    sim = Simulator()
    _, out_port, in_port, connection = make_ports(sim)
    connect_ports(out_port, in_port, connection)
    _, _, other_in, other_connection = make_ports(sim)
    with pytest.raises(PortConnectionError):
        connect_ports(out_port, other_in, other_connection)


def test_close_before_wiring_propagates():
    """A producer that finished before its link was wired still closes it."""
    sim, out_port, in_port, connection = make_ports()
    out_port.close()
    connect_ports(out_port, in_port, connection)
    from repro.core.errors import PortClosed

    def consumer():
        try:
            yield from in_port.get()
        except PortClosed:
            return "closed"

    assert sim.run(sim.process(consumer())) == "closed"


def test_queue_closes_only_when_all_producers_done():
    sim = Simulator()
    config = SSDConfig()

    def compute(duration_us):
        yield sim.timeout(0)

    def interface(nbytes):
        yield sim.timeout(0)

    connection = Connection(sim, PortKind.INTER_SSDLET, int)
    side = Side(compute, interface, 0.0, 0.0)
    producers = [
        build_ports(sim, "p%d" % i, side, config, out_types=(int,))[1][0]
        for i in range(2)
    ]
    (consumer,), _ = build_ports(sim, "c", side, config, in_types=(int,))
    connect_ports(producers[0], consumer, connection)
    connect_ports(producers[1], consumer, connection)
    producers[0].close()
    assert not connection.queue.closed
    producers[1].close()
    assert connection.queue.closed


def test_get_on_unconnected_port_blocks_until_wired():
    sim, out_port, in_port, connection = make_ports()
    got = []

    def consumer():
        got.append((yield from in_port.get()))

    sim.process(consumer())
    sim.run(until=1000)
    assert got == []  # still waiting for wiring
    connect_ports(out_port, in_port, connection)
    sim.process(out_port.put(5))
    sim.run()
    assert got == [5]


def test_get_opt_and_drain():
    sim, out_port, in_port, connection = make_ports()
    connect_ports(out_port, in_port, connection)

    def program():
        for i in range(3):
            yield from out_port.put(i)
        out_port.close()
        values = yield from in_port.drain()
        empty = yield from in_port.get_opt()
        return values, empty

    values, empty = sim.run(sim.process(program()))
    assert values == [0, 1, 2]
    assert empty is None


# Table II, decomposed: one put + get over every connection that can exist
# (kind x producer side x consumer side), with the real host and device
# sides of an Application.  Elapsed ns as the four port classes this replaced
# measured them; simulator events with every hold continuing in line.
ROUND_TRIPS = [
    ("inter-ssdlet", PortKind.INTER_SSDLET, False, False, 31_000, 5),
    ("inter-application", PortKind.INTER_APP, False, False, 10_700, 3),
    ("d2h", PortKind.HOST_DEVICE, False, True, 130_102, 6),
    ("h2d", PortKind.HOST_DEVICE, True, False, 301_602, 6),
    ("host-local", PortKind.HOST_LOCAL, True, True, 2_500, 3),
]


@pytest.mark.parametrize(
    "kind,out_host,in_host,elapsed_ns,events",
    [row[1:] for row in ROUND_TRIPS], ids=[row[0] for row in ROUND_TRIPS])
def test_round_trip_cost_follows_the_connection_kind(
        kind, out_host, in_host, elapsed_ns, events):
    from repro.core import SSD, Application, Packet
    from repro.host.platform import System

    system = System()
    app = Application(SSD(system), "t")
    sim, config = system.sim, system.config
    dtype, value = ((Packet, Packet(b"\xA5" * 8)) if kind.packet_transport
                    else (int, 7))

    def side(is_host):
        return app._host_side if is_host else app._device_side

    _, (out_port,) = build_ports(sim, "src", side(out_host), config,
                                 out_types=(dtype,))
    (in_port,), _ = build_ports(sim, "dst", side(in_host), config,
                                in_types=(dtype,))
    connect_ports(out_port, in_port, Connection(sim, kind, dtype))

    def program():
        start, before = sim.now, sim.events_processed
        yield from out_port.put(value)
        assert (yield from in_port.get()) == value
        return sim.now - start, sim.events_processed - before

    assert system.run_fiber(program()) == (elapsed_ns, events)
