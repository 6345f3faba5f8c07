"""What a host task and an SSDlet share.

Section I: "Biscuit does not distinguish tasks that run on the host system
and the storage system."  Both declare their port and argument types as
class attributes and override ``run()`` as a fiber; the framework injects
ports and arguments at instantiation (:meth:`TaskBase._bind`, the same step
on either side).  :class:`~repro.core.ssdlet.SSDLet` and
:class:`~repro.core.hostlet.HostTask` add what differs: where the task
computes, and what it may open and allocate.
"""

from __future__ import annotations

from typing import Any, ClassVar, Generator, Optional, Sequence, Tuple

from repro.core.errors import TypeMismatchError
from repro.core.ports import InputPort, OutputPort, Side, make_ports
from repro.core.types import check_value
from repro.sim.engine import Simulator

__all__ = ["TaskBase"]


class TaskBase:
    """Declared types, injected ports and arguments, and their accessors."""

    #: Type specs of input ports, one entry per port.
    IN_TYPES: ClassVar[Sequence[Any]] = ()
    #: Type specs of output ports, one entry per port.
    OUT_TYPES: ClassVar[Sequence[Any]] = ()
    #: Type specs of constructor arguments (None disables checking).
    ARG_TYPES: ClassVar[Optional[Sequence[Any]]] = None

    def __init__(self) -> None:
        # Filled in by the framework at instantiation; user subclasses must
        # not override __init__ with required parameters.
        self._instance_id = ""
        self._in_ports: Tuple[InputPort, ...] = ()
        self._out_ports: Tuple[OutputPort, ...] = ()
        self._args: Tuple[Any, ...] = ()

    def _bind(self, sim: Simulator, instance_id: str, args: Tuple[Any, ...],
              side: Side, config: Any) -> None:
        """Inject identity, arguments and ports; ``side`` is where this
        task's ends of its connections do their work."""
        self._instance_id = instance_id
        self._args = args
        self._in_ports, self._out_ports = make_ports(
            sim, instance_id, side, config, self.IN_TYPES, self.OUT_TYPES)

    @classmethod
    def validate_args(cls, args: Tuple[Any, ...]) -> None:
        if cls.ARG_TYPES is None:
            return
        if len(args) != len(cls.ARG_TYPES):
            raise TypeMismatchError(
                "%s expects %d args, got %d"
                % (cls.__name__, len(cls.ARG_TYPES), len(args))
            )
        for value, spec in zip(args, cls.ARG_TYPES):
            check_value(value, spec)

    # ------------------------------------------------------------ subclass API
    def run(self) -> Generator[Any, Any, None]:
        """The task body; override as a generator (fiber)."""
        raise NotImplementedError
        yield  # pragma: no cover - marks run() as a generator template

    def in_(self, index: int) -> InputPort:
        """Input port ``index`` (paper: ``in(i)``)."""
        return self._in_ports[index]

    def out(self, index: int) -> OutputPort:
        """Output port ``index``."""
        return self._out_ports[index]

    def arg(self, index: int) -> Any:
        """Initial argument ``index`` passed from the host program."""
        return self._args[index]

    @property
    def args(self) -> Tuple[Any, ...]:
        return self._args

    @property
    def name(self) -> str:
        return self._instance_id

    def close_outputs(self) -> None:
        for port in self._out_ports:
            port.close()
