"""The device-side SSDLet base class (the paper's libslet ``SSDLet``).

Subclasses declare their port and argument types as class attributes (the
Python analogue of the paper's template parameters ``IN_TYPE``, ``OUT_TYPE``,
``ARG_TYPE``) and override :meth:`run` as a fiber::

    class Mapper(SSDLet):
        OUT_TYPES = (str,)
        ARG_TYPES = (DeviceFile,)

        def run(self):
            file = yield from self.open(self.arg(0))
            data = yield from file.read(0, file.size)
            for word in data.split():
                yield from self.out(0).put(word.decode())

The runtime injects ports, arguments and resource hooks at instantiation;
``run`` executes as a cooperative fiber on the application's assigned core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.errors import BiscuitError, SafetyViolation
from repro.core.task import TaskBase

if TYPE_CHECKING:
    from repro.core.runtime import BiscuitRuntime, DeviceApplication
    from repro.fs.file import FileHandle

__all__ = ["SSDLet"]


class SSDLet(TaskBase):
    """Base class for device-resident tasks."""

    def __init__(self) -> None:
        # Filled in by the runtime (BiscuitRuntime.instantiate).
        super().__init__()
        self._runtime: Optional["BiscuitRuntime"] = None
        self._app: Optional["DeviceApplication"] = None

    @property
    def num_in(self) -> int:
        return len(self._in_ports)

    @property
    def num_out(self) -> int:
        return len(self._out_ports)

    # ------------------------------------------------------------- resources
    def _require_runtime(self) -> "BiscuitRuntime":
        if self._runtime is None:
            raise BiscuitError(
                "%s is not instantiated by the runtime" % type(self).__name__
            )
        return self._runtime

    def _require_app(self) -> "DeviceApplication":
        if self._app is None:
            raise BiscuitError(
                "%s is not instantiated by the runtime" % type(self).__name__
            )
        return self._app

    def compute(self, duration_us: float) -> Generator[Any, Any, None]:
        """Fiber: spend device-CPU time on this application's core."""
        yield from self._require_runtime().compute(self._require_app(), duration_us)

    def yield_(self) -> Generator[Any, Any, None]:
        """Explicit cooperative yield (lets other fibers of the core run)."""
        yield self._require_runtime().sim.timeout(0)

    def open(self, device_file: Any) -> Generator[Any, Any, "FileHandle"]:
        """Fiber: open a host program's file token for internal I/O.

        Permission is inherited from the host program (Section III-D): the
        runtime opens only a :class:`~repro.core.ssd_api.DeviceFile` made on
        this device and raises :class:`SafetyViolation` for anything else.
        """
        handle: "FileHandle" = yield from self._require_runtime().open_file(
            self._require_app(), device_file
        )
        return handle

    def malloc(self, size: int) -> int:
        """Allocate from the *user* allocator; returns an address token."""
        return self._require_runtime().allocators.user_alloc(
            size, owner=self._instance_id
        )

    def mfree(self, address: int) -> None:
        self._require_runtime().allocators.user_free(
            address, owner=self._instance_id
        )

    def system_memory_access(self, address: int) -> None:
        """Any touch of system-allocator memory is a safety violation."""
        raise SafetyViolation(
            "%s attempted to access system memory at %d" % (self._instance_id, address)
        )
