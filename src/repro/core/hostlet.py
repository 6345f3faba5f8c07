"""Host-side tasks: the other half of the paper's seamless model.

Section I: "Biscuit does not distinguish tasks that run on the host system
and the storage system."  A :class:`HostTask` is written exactly like an
SSDlet — declare port types, override ``run()`` as a fiber — but executes
on host cores.  Wiring is uniform: connect a HostTask port to an SSDlet
port and the framework builds a host-device connection; connect two
HostTasks and it builds a cheap host-local queue.

Example::

    class Top5(HostTask):
        IN_TYPES = (Tuple[str, int],)

        def run(self):
            best = []
            while True:
                try:
                    pair = yield from self.in_(0).get()
                except PortClosed:
                    break
                best = sorted(best + [pair], key=lambda kv: -kv[1])[:5]
            self.result = best
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Tuple

from repro.core.application import TaskProxy
from repro.core.errors import BiscuitError, TypeMismatchError
from repro.core.task import TaskBase

if TYPE_CHECKING:
    from repro.core.application import Application

__all__ = ["HostTask", "HostTaskProxy"]


class HostTask(TaskBase):
    """Base class for host-resident tasks of an Application."""

    def __init__(self) -> None:
        super().__init__()
        self._system: Optional[Any] = None
        self._app: Optional["Application"] = None

    def compute(self, duration_us: float, memory_bound: bool = True) -> Generator[Any, Any, None]:
        """Fiber: spend host-CPU time (subject to memory contention)."""
        if self._system is None:
            raise BiscuitError("%s is not attached to an application" % type(self).__name__)
        yield from self._system.cpu.occupy(duration_us, memory_bound=memory_bound)

    def open(self, path: str) -> Any:
        """Open a file over the conventional host path."""
        if self._system is None:
            raise BiscuitError("%s is not attached to an application" % type(self).__name__)
        return self._system.open_host(path)


class HostTaskProxy(TaskProxy):
    """Registers a HostTask with an Application (mirrors SSDLetProxy)."""

    def __init__(self, app: "Application", task_class: type, args: Tuple[Any, ...] = ()):
        if not issubclass(task_class, HostTask):
            raise TypeMismatchError("%s is not a HostTask" % task_class.__name__)
        super().__init__(app, task_class, task_class.__name__, args, is_host=True)
