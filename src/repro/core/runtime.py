"""The device-side Biscuit runtime (Section IV-B).

Responsibilities, mirroring the paper:

* **Cooperative multithreading** — every SSDlet instance gets a fiber;
  context switches happen only at yields and blocking I/O.
* **Multi-core scheduling at application granularity** — an application's
  fibers all run on one assigned core (a per-core lock here), which is what
  makes shared inter-SSDlet queues safe without locks.
* **Dynamic module loading** — module images are read from the device
  filesystem (timed), parsed, relocated (device-CPU time proportional to
  binary size) and registered; unload requires no live instances.
* **Dynamic memory allocation** — system and user allocators; each instance
  is an isolation owner in the user arena and is swept on teardown.
* **File permission inheritance** — SSDlets may only open files through a
  :class:`~repro.core.ssd_api.DeviceFile` token a host program made on this
  device; the token is the grant (Section III-D).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from repro.core.errors import ModuleError, SafetyViolation
from repro.core.memory import AllocatorSet
from repro.core.module import SSDletModule, module_repository, read_module_header
from repro.core.ports import Side
from repro.core.ssdlet import SSDLet
from repro.fs.file import FileHandle
from repro.fs.filesystem import FileSystem, Inode
from repro.sim.engine import Process, Simulator, all_of
from repro.sim.resources import Resource
from repro.sim.units import KIB, us_to_ns
from repro.ssd.device import SSDDevice

if TYPE_CHECKING:
    from repro.core.links import Link

__all__ = ["BiscuitRuntime", "DeviceApplication", "LoadedModule"]

INSTANCE_BASE_BYTES = 64 * KIB  # per-instance address-space floor
INSTANCE_RELOC_US = 150.0  # per-instance symbol relocation cost


class LoadedModule:
    """A module resident in device memory."""

    def __init__(self, mid: int, module: SSDletModule, memory_offset: int):
        self.mid = mid
        self.module = module
        self.memory_offset = memory_offset
        self.live_instances = 0


class DeviceApplication:
    """Device-side view of one Application: core assignment + instances."""

    _ids = itertools.count(1)

    def __init__(self, name: str, core: int):
        self.app_id = next(DeviceApplication._ids)
        self.name = name or "app%d" % self.app_id
        self.core = core
        self.instances: List[SSDLet] = []
        self.fibers: List[Process] = []
        self.started = False


class BiscuitRuntime:
    """One runtime per SSD (kept with the device; see ``repro.core.SSD``)."""

    def __init__(self, system, device: Optional[SSDDevice] = None,
                 fs: Optional[FileSystem] = None):
        self.system = system
        self.sim: Simulator = system.sim
        self.device: SSDDevice = device if device is not None else system.device
        self.fs: FileSystem = fs if fs is not None else system.fs
        self.config = self.device.config
        self.allocators = AllocatorSet(
            self.config.system_heap_bytes, self.config.user_heap_bytes
        )
        # Application-granularity multi-core scheduling: one lock per core.
        self.core_locks = [
            Resource(self.sim, capacity=1, name="core%d" % i)
            for i in range(self.config.device_cores)
        ]
        self._next_core = 0
        self._modules: Dict[int, LoadedModule] = {}
        self._next_mid = itertools.count(1)
        self._instance_ids = itertools.count(1)
        self.applications: List[DeviceApplication] = []
        # Every link declared by a live Application on this runtime (``Link``
        # records), so inter-application wiring is visible from both sides:
        # verify_graph reads it, and a start() wires the links a peer
        # declared onto its tasks before those tasks existed.
        self.links: List["Link"] = []

    # ---------------------------------------------------------------- modules
    def load_module(self, inode: Inode) -> Generator:
        """Fiber: load a module image from the filesystem; returns the mid."""
        # Read the image over the internal path (timed).
        lpns = inode.lpns(0, inode.size)
        yield from self.device.internal_read(lpns)
        header = self.fs.read_range(inode, 0, min(inode.size, 4096))
        name = read_module_header(header)
        module = module_repository()[name]
        # Relocation + copy-in cost scales with binary size.
        load_us = (
            self.config.module_fixed_load_us
            + self.config.module_load_us_per_kib * (module.binary_size / KIB)
        )
        yield from self.device.controller.device_compute(load_us)
        offset = self.allocators.system_alloc(module.binary_size)
        mid = next(self._next_mid)
        self._modules[mid] = LoadedModule(mid, module, offset)
        return mid

    def unload_module(self, mid: int) -> Generator:
        """Fiber: unload a module; fails while instances are live."""
        loaded = self._get_module(mid)
        if loaded.live_instances > 0:
            raise ModuleError(
                "module %s has %d live instances" % (loaded.module.name, loaded.live_instances)
            )
        yield from self.device.controller.device_compute(
            self.config.module_fixed_load_us / 2
        )
        self.allocators.system_free(loaded.memory_offset)
        del self._modules[mid]

    def _get_module(self, mid: int) -> LoadedModule:
        try:
            return self._modules[mid]
        except KeyError:
            raise ModuleError("no module loaded with id %d" % mid) from None

    @property
    def loaded_modules(self) -> Tuple[int, ...]:
        return tuple(self._modules)

    # ----------------------------------------------------------- applications
    def register_application(self, name: str = "") -> DeviceApplication:
        app = DeviceApplication(name, core=self._next_core)
        self._next_core = (self._next_core + 1) % len(self.core_locks)
        self.applications.append(app)
        return app

    def instantiate(
        self,
        app: DeviceApplication,
        mid: int,
        class_id: str,
        args: Tuple[Any, ...],
        side: Side,
    ) -> Generator:
        """Fiber: create an SSDlet instance inside ``app``; returns it.
        ``side`` is the device's share of ``app``'s port transfers."""
        if app.started:
            raise ModuleError("cannot add instances to a started application")
        loaded = self._get_module(mid)
        cls = loaded.module.lookup(class_id)
        if not issubclass(cls, SSDLet):
            raise ModuleError("%s is not an SSDLet" % cls.__name__)
        cls.validate_args(tuple(args))
        # Per-instance address space: symbol relocation + a user-arena region.
        yield from self.device.controller.device_compute(INSTANCE_RELOC_US)
        instance_id = "%s/%s#%d" % (app.name, class_id, next(self._instance_ids))
        self.allocators.user_alloc(INSTANCE_BASE_BYTES, owner=instance_id)
        instance = cls()
        instance._runtime = self
        instance._app = app
        instance._bind(self.sim, instance_id, tuple(args), side, self.config)
        app.instances.append(instance)
        loaded.live_instances += 1
        instance._loaded_module = loaded
        return instance

    def start_application(self, app: DeviceApplication) -> Generator:
        """Fiber: launch a fiber for every instance of the application."""
        if app.started:
            raise ModuleError("application %s already started" % app.name)
        app.started = True
        if self.sim.trace is not None:
            self.sim.trace.instant(
                "core", "app-start", "%s/runtime" % app.name,
                app=app.name, core=app.core, instances=len(app.instances))
        for instance in app.instances:
            # Each SSDlet fiber is a causal child of the launching request:
            # traced, its emissions carry "<qid>+<instance_id>".
            with self.sim.child_scope(instance._instance_id):
                fiber = self.sim.process(
                    self._instance_body(instance), name=instance._instance_id)
            fiber.defused = True  # failures are surfaced via wait_application
            app.fibers.append(fiber)
        yield self.sim.timeout(us_to_ns(self.config.fiber_schedule_us))

    def _instance_body(self, instance: SSDLet) -> Generator:
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        try:
            yield from instance.run()
        finally:
            instance.close_outputs()
            instance._loaded_module.live_instances -= 1
            self.allocators.release_owner(instance._instance_id)
            if trace is not None:
                # The fiber's whole life as one span on its own track
                # ("app/class#n" → process app, thread class#n in Perfetto).
                trace.complete("core", "fiber", instance._instance_id,
                               start_ns, core=instance._app.core)

    def wait_application(self, app: DeviceApplication) -> Generator:
        """Fiber: block until every instance fiber finished; re-raise errors."""
        if app.fibers:
            yield all_of(self.sim, app.fibers)

    def retire_application(self, app: DeviceApplication) -> None:
        """Drop a finished application's runtime bookkeeping.

        Host-side teardown (``Application.wait``/``stop``) calls this so
        repeated load/run/unload cycles in one simulation — the serving
        layer's steady state — do not accumulate dead applications, fiber
        lists, or link declarations.  Idempotent; fiber/instance lists are
        only cleared once every fiber has actually finished (an interrupted
        fiber still needs its teardown ``finally`` to run).
        """
        if all(not fiber.is_alive for fiber in app.fibers):
            app.fibers = []
            app.instances = []

        self.links = [
            link for link in self.links
            if link.out_ep.app.device_app is not app
            and link.in_ep.app.device_app is not app
        ]
        try:
            self.applications.remove(app)
        except ValueError:
            pass

    # ------------------------------------------------------------------ files
    def open_file(self, app: DeviceApplication, device_file: Any) -> Generator:
        """Fiber: open a host program's file token for internal I/O; small
        firmware cost.  Anything but a DeviceFile made on this device is
        refused."""
        from repro.core.ssd_api import DeviceFile

        if not isinstance(device_file, DeviceFile) or device_file.runtime is not self:
            raise SafetyViolation(
                "%s: %r is not a file token of this device" % (app.name, device_file)
            )
        yield from self.device.controller.device_compute(5.0)
        inode = self.fs.lookup(device_file.path)
        return FileHandle(self.fs, inode, internal=True,
                          use_matcher=device_file.use_matcher,
                          cache_bypass=device_file.cache_bypass)

    # ------------------------------------------------------------------ hooks
    def compute(self, app: DeviceApplication, duration_us: float) -> Generator:
        """Fiber: run ``duration_us`` of SSDlet compute on the app's core."""
        if duration_us <= 0:
            return
        lock = self.core_locks[app.core]
        yield lock.request()
        try:
            yield self.sim.timeout(us_to_ns(duration_us))
        finally:
            lock.release()
