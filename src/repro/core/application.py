"""Host-side Application and SSDLet proxy classes (the libsisc surface).

A host program builds an :class:`Application`, declares proxy
:class:`SSDLetProxy` instances, wires ports with :meth:`Application.connect` /
:meth:`Application.connectTo` / :meth:`Application.connectFrom`, then calls
:meth:`Application.start` — which performs the control-channel round trips
that create device instances, establish every connection, and launch the
fibers, "so that all SSDlets begin execution after their communication
channels are completely set up" (Section III-E).  :meth:`Application.run`
is the whole life-cycle in one call: start, the host program's port
traffic, wait, and stop on every path out.
"""

from __future__ import annotations

import functools
import itertools
import os
import warnings
from typing import Any, Generator, List, Optional, Sequence, Tuple

from repro.core.errors import GraphWarning, PortConnectionError, TypeMismatchError
from repro.core.links import Endpoint, Link, link_kind
from repro.core.ports import (
    Connection,
    InputPort,
    OutputPort,
    PortKind,
    Side,
    connect_ports,
    make_ports,
)
from repro.core.provenance import caller_site
from repro.core.types import spec_name

__all__ = ["Application", "TaskProxy", "SSDLetProxy"]

#: Graph-verifier modes accepted by ``Application(..., verify=...)``.
VERIFY_MODES = ("off", "warn", "strict")


class TaskProxy:
    """Host-side handle to one task of an Application.  Where the task runs
    is the value ``is_host``; everything else is the same on both sides."""

    def __init__(self, app: "Application", task_class: type, class_id: str,
                 args: Tuple, is_host: bool):
        self.app = app
        self.task_class = task_class
        self.class_id = class_id
        self.args = tuple(args)
        self.is_host = is_host
        self.instance = None  # the live task, set by Application.start
        self.site = caller_site()  # where the user declared this task
        app._register(self)

    def out(self, index: int) -> Endpoint:
        return Endpoint(self, "out", index)

    def in_(self, index: int) -> Endpoint:
        return Endpoint(self, "in", index)


class SSDLetProxy(TaskProxy):
    """Host-side proxy for one device SSDlet instance (libsisc's SSDLet)."""

    def __init__(self, app: "Application", mid: int, class_id: str, args: Tuple = ()):
        self.mid = mid
        task_class = app.ssd.runtime._get_module(mid).module.lookup(class_id)
        super().__init__(app, task_class, class_id, args, is_host=False)


class Application:
    """A cooperating group of SSDlets coordinated from the host."""

    _names = itertools.count(1)

    def __init__(self, ssd, name: str = "", verify: Optional[str] = None):
        self.ssd = ssd
        self.name = name or "app%d" % next(Application._names)
        self.device_app = ssd.runtime.register_application(self.name)
        self._proxies: List[SSDLetProxy] = []
        self._host_tasks: List[TaskProxy] = []
        self._host_fibers: List[Any] = []
        self._links: List[Link] = []  # every link this application declared
        self._host_ports = itertools.count()  # connectTo/connectFrom numbering
        self._data_channels_held = 0
        self.started = False
        self._conn_seq = itertools.count(1)
        if verify is None:
            verify = os.environ.get("REPRO_VERIFY_GRAPH", "warn")
        if verify not in VERIFY_MODES:
            raise ValueError(
                "verify must be one of %r, got %r" % (VERIFY_MODES, verify)
            )
        self.verify_mode = verify
        # The two sides a port of this application can be on.
        host, device = ssd.system.config, ssd.runtime.config
        crossing = ssd.channels.interface_crossing
        self._host_side = Side(
            ssd.system.cpu.occupy, functools.partial(crossing, to_host=False),
            host.h2d_host_sender_us, host.d2h_host_receiver_us)
        self._device_side = Side(
            functools.partial(ssd.runtime.compute, self.device_app),
            functools.partial(crossing, to_host=True),
            device.d2h_device_sender_us, device.h2d_device_receiver_us)

    def _register(self, proxy: TaskProxy) -> None:
        if self.started:
            raise PortConnectionError("cannot add tasks after start()")
        (self._host_tasks if proxy.is_host else self._proxies).append(proxy)

    # ----------------------------------------------------------------- wiring
    def connect(self, out_ep: Endpoint, in_ep: Endpoint) -> None:
        """Link a task's output to a task's input (types must be identical)."""
        if out_ep.direction != "out" or in_ep.direction != "in":
            raise PortConnectionError("connect(output_endpoint, input_endpoint)")
        if out_ep.dtype != in_ep.dtype:
            raise TypeMismatchError(
                "cannot connect %s output to %s input"
                % (spec_name(out_ep.dtype), spec_name(in_ep.dtype))
            )
        self._declare(Link(out_ep, in_ep, caller_site()))

    def connectTo(self, out_ep: Endpoint, dtype: Any) -> InputPort:
        """Route an SSDlet output back to the host; returns the host port."""
        if out_ep.direction != "out":
            raise PortConnectionError("connectTo(output_endpoint, dtype)")
        host_ep = self._host_end("connectTo", out_ep, dtype)
        self._declare(Link(out_ep, host_ep, caller_site()))
        return host_ep.port

    def connectFrom(self, dtype: Any, in_ep: Endpoint) -> OutputPort:
        """Feed an SSDlet input from the host; returns the host port."""
        if in_ep.direction != "in":
            raise PortConnectionError("connectFrom(dtype, input_endpoint)")
        host_ep = self._host_end("connectFrom", in_ep, dtype)
        self._declare(Link(host_ep, in_ep, caller_site()))
        return host_ep.port

    def _host_end(self, what: str, task_ep: Endpoint, dtype: Any) -> Endpoint:
        """The far end of a connectTo / connectFrom link: a port the host
        program itself holds, opposite ``task_ep``; numbered in declaration
        order, both directions together."""
        if dtype != task_ep.dtype:
            raise TypeMismatchError(
                "%s declared %s but port is %s"
                % (what, spec_name(dtype), spec_name(task_ep.dtype))
            )
        direction = "in" if task_ep.direction == "out" else "out"
        ins, outs = make_ports(
            self.ssd.system.sim, "host:%s" % self.name, self._host_side,
            self.ssd.system.config, first_index=next(self._host_ports),
            **{direction + "_types": (dtype,)})
        (port,) = ins + outs
        return Endpoint(None, direction, port.index, self, port)

    def _declare(self, link: Link) -> None:
        """Record a link here and in the runtime-wide registry, which gives
        the verifier and the wiring pass of a peer application the
        inter-application links declared by whichever side called
        connect()."""
        self._links.append(link)
        self.ssd.runtime.links.append(link)

    def _peer_links(self) -> List[Link]:
        """The links another application declared onto this one's tasks."""
        own = set(map(id, self._links))
        return [
            link for link in self.ssd.runtime.links
            if id(link) not in own and self in (link.out_ep.app, link.in_ep.app)
        ]

    # ------------------------------------------------------------ verification
    def verify(self) -> List[Any]:
        """Statically verify the wired pipeline; returns the findings.

        Does not warn or raise — ``start()`` does that according to
        ``verify_mode`` ("warn" by default, "strict" to refuse startup,
        "off" to skip; the ``REPRO_VERIFY_GRAPH`` environment variable sets
        the default for applications built without an explicit mode).
        """
        from repro.analysis.graph import verify_graph

        return verify_graph(self)

    def _run_verifier(self) -> None:
        if self.verify_mode == "off":
            return
        findings = self.verify()
        if not findings:
            return
        if self.verify_mode == "strict":
            from repro.analysis.graph import GraphVerificationError

            raise GraphVerificationError(findings)
        for finding in findings:
            warnings.warn("graph verifier: %s" % finding.render(),
                          GraphWarning, stacklevel=3)

    # ------------------------------------------------------------------ start
    def start(self) -> Generator:
        """Fiber: create instances, establish connections, begin execution."""
        if self.started:
            raise PortConnectionError("application %s already started" % self.name)
        # Static checks first: reject (strict) or report (warn) a mis-wired
        # graph before any control-channel round trip commits device state.
        self._run_verifier()
        runtime = self.ssd.runtime
        manager = self.ssd.channels
        # 1. Create device instances (one control round trip each) and host
        #    task instances (local work, no control traffic).
        for proxy in self._proxies:
            proxy.instance = yield from manager.control_call(
                runtime.instantiate(self.device_app, proxy.mid, proxy.class_id,
                                    proxy.args, self._device_side)
            )
        for proxy in self._host_tasks:
            proxy.instance = self._instantiate_host(proxy)
        # 2. Wire the links between tasks, batched into one control call:
        #    this application's, then those a peer application declared
        #    onto these tasks before they existed.
        links = self._links + self._peer_links()
        yield from manager.control_call(self._wire_in_control_call(
            [link for link in links if not link.to_host_program]))
        # 3. Wire the host program's own ports after it; each takes a data
        #    channel from the pool (and may wait for one, which must not
        #    happen inside the control call).
        yield from self._wire([link for link in links if link.to_host_program])
        # 4. Start all fibers (device first, then the host tasks).
        yield from manager.control_call(runtime.start_application(self.device_app))
        for proxy in self._host_tasks:
            fiber = self.ssd.system.sim.process(
                self._host_task_body(proxy.instance),
                name="host:%s" % proxy.class_id,
            )
            fiber.defused = True
            self._host_fibers.append(fiber)
        self.started = True

    def _instantiate_host(self, proxy: TaskProxy):
        cls = proxy.task_class
        cls.validate_args(proxy.args)
        instance = cls()
        instance._system = self.ssd.system
        instance._app = self
        instance._bind(
            self.ssd.system.sim, "host:%s/%s" % (self.name, cls.__name__),
            proxy.args, self._host_side, self.ssd.system.config)
        return instance

    def _host_task_body(self, instance) -> Generator:
        try:
            yield from instance.run()
        finally:
            instance.close_outputs()

    def _wire(self, links: Sequence[Link]) -> Generator:
        """Fiber: resolve ``links`` to connections — the only place a
        connection is made or a data channel taken; returns how many links
        it wired."""
        wired = 0
        for out_ep, in_ep, _site in links:
            out_port = out_ep.resolve()
            in_port = in_ep.resolve()
            if out_port is None or in_port is None:
                # The peer application has not created its instances yet
                # (inter-application link); its start() wires this link.
                continue
            kind = link_kind(out_ep, in_ep)
            connection = out_port.connection or in_port.connection
            if connection is None:
                if kind is PortKind.HOST_DEVICE:
                    yield from self.ssd.channels.acquire_data_channel()
                    self._data_channels_held += 1
                connection = Connection(
                    self.ssd.system.sim, kind, out_ep.dtype,
                    name="conn%d" % next(self._conn_seq),
                )
            elif connection.kind is not kind:
                raise PortConnectionError(
                    "%r -> %r is %s but a port is already on a %s connection"
                    % (out_ep, in_ep, kind.value, connection.kind.value))
            connect_ports(out_port, in_port, connection)
            wired += 1
        return wired

    def _wire_in_control_call(self, links: Sequence[Link]) -> Generator:
        wired = yield from self._wire(links)
        # Port wiring is device-side bookkeeping; charge a small constant.
        yield from self.ssd.runtime.device.controller.device_compute(
            2.0 * max(1, wired))

    # ------------------------------------------------------------- lifecycle
    def run(self, collect: Optional[Generator] = None) -> Generator:
        """Fiber: the one life-cycle of a host program's application —
        ``start``, then the ``collect`` fiber (the host program's side of
        its ports), then ``wait`` — with ``stop`` on every path out, so a
        failed run strands no fiber and no data channel.  Returns what
        ``collect`` returns."""
        try:
            yield from self.start()
            value = None
            if collect is not None:
                value = yield from collect
            yield from self.wait()
        finally:
            self.stop()
        return value

    def wait(self) -> Generator:
        """Fiber: block until every task of this application finished."""
        if not self.started:
            raise PortConnectionError("wait() before start()")
        if self._host_fibers:
            from repro.sim.engine import all_of
            yield all_of(self.ssd.system.sim, self._host_fibers)
        yield from self.ssd.runtime.wait_application(self.device_app)
        # Completion notification crosses the device-to-host path once.
        yield from self._device_side.interface(64)
        yield from self._host_side.compute(self._host_side.receiver_us)
        # Every fiber has finished: return the data channels to the pool and
        # drop the runtime bookkeeping, so load/run/unload cycles are
        # steady-state (a serving workload would otherwise exhaust the
        # channel pool after channel_pool_size jobs).
        self._teardown()

    def stop(self) -> None:
        """Interrupt all still-running task fibers and release channels."""
        for fiber in self.device_app.fibers + self._host_fibers:
            if fiber.is_alive:
                fiber.interrupt("application stop")
        self._teardown()

    def _teardown(self) -> None:
        while self._data_channels_held:
            self.ssd.channels.release_data_channel()
            self._data_channels_held -= 1
        self._host_fibers = []
        self.ssd.runtime.retire_application(self.device_app)
