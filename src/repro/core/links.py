"""What a host program declares before start(): endpoints and links.

An :class:`Endpoint` names a port that may not exist yet; a :class:`Link`
is the one record of "this output feeds that input" — the per-application
list, the runtime-wide registry, the wiring pass of ``Application.start``
and the graph verifier all hold the same records; :func:`link_kind` is the
one place a connection's kind is derived from where its two ends run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.core.errors import PortConnectionError
from repro.core.ports import PortKind

if TYPE_CHECKING:
    from repro.core.application import Application, TaskProxy

__all__ = ["Endpoint", "Link", "link_kind"]


class Endpoint:
    """A (proxy, direction, index) port reference used before start().

    ``proxy`` is None on the host program's own end of a connectTo /
    connectFrom link: no task holds that port, and it exists (``port``)
    from the declaration on.
    """

    __slots__ = ("proxy", "direction", "index", "app", "is_host", "port")

    def __init__(self, proxy: Optional["TaskProxy"], direction: str, index: int,
                 app: Optional["Application"] = None, port: Any = None):
        self.proxy = proxy
        self.direction = direction
        self.index = index
        self.app = proxy.app if proxy is not None else app
        self.is_host = proxy is None or proxy.is_host
        self.port = port

    @property
    def dtype(self) -> Any:
        if self.proxy is None:
            return self.port.dtype
        cls = self.proxy.task_class
        types = cls.OUT_TYPES if self.direction == "out" else cls.IN_TYPES
        try:
            return types[self.index]
        except IndexError:
            raise PortConnectionError(
                "%s has no %sput port %d"
                % (cls.__name__, self.direction, self.index)
            ) from None

    def resolve(self):
        """The live port; None until the owning application's start()
        has created its task instances."""
        if self.proxy is None:
            return self.port
        instance = self.proxy.instance
        if instance is None:
            return None
        ports = instance._out_ports if self.direction == "out" else instance._in_ports
        return ports[self.index]

    def __repr__(self) -> str:
        owner = self.proxy.class_id if self.proxy is not None else "host"
        return "<%s.%s(%d)>" % (owner, self.direction, self.index)


class Link(NamedTuple):
    """One declared connection: the producer's endpoint, the consumer's, and
    where the host program declared it."""

    out_ep: Endpoint
    in_ep: Endpoint
    site: Any = None

    @property
    def to_host_program(self) -> bool:
        """One end is a port the host program itself holds."""
        return self.out_ep.proxy is None or self.in_ep.proxy is None


def link_kind(out_ep: Endpoint, in_ep: Endpoint) -> PortKind:
    """A connection's kind follows from where its two ends run."""
    if out_ep.is_host and in_ep.is_host:
        return PortKind.HOST_LOCAL
    if out_ep.is_host or in_ep.is_host:
        return PortKind.HOST_DEVICE
    same_app = out_ep.app.device_app is in_ep.app.device_app
    return PortKind.INTER_SSDLET if same_app else PortKind.INTER_APP
