"""The host-side SSD facade and File tokens (libsisc's SSD / File classes).

``SSD(system)`` is the paper's ``SSD ssd("/dev/nvme0n1")``: a handle on the
device's one Biscuit runtime and channel manager, providing module
load/unload plus :class:`DeviceFile` tokens.  A DeviceFile *is* the grant:
the runtime opens a file for an SSDlet only through a token the host
program made on that device — the permission inheritance of Section III-D.

``SSD.load`` holds the device's one copy of a module ("Module residency"
in DESIGN.md); ``SSD.holding`` holds it for exactly one host program.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.core.channels import ChannelManager
from repro.core.module import SSDletModule, write_module_image
from repro.core.runtime import BiscuitRuntime, Residency
from repro.host.platform import System
from repro.sim.engine import Event, Interrupt

__all__ = ["SSD", "DeviceFile"]


class DeviceFile:
    """A host-created file token passable to SSDlets (args or ports).

    ``use_matcher`` asks the device to engage the per-channel hardware
    pattern matcher when SSDlets read through this token.  ``cache_bypass``
    marks the token's reads as a streaming scan: they flow past the
    device-DRAM read cache instead of evicting the hot working set (matcher
    reads bypass implicitly).
    """

    def __init__(self, ssd: "SSD", path: str, use_matcher: bool = False,
                 cache_bypass: bool = False):
        self.runtime = ssd.runtime  # the one runtime that will open it
        self.path = path
        self.use_matcher = use_matcher
        self.cache_bypass = cache_bypass

    def __repr__(self) -> str:
        flags = "".join(
            [", matcher" if self.use_matcher else "",
             ", cache-bypass" if self.cache_bypass else ""])
        return "DeviceFile(%r%s)" % (self.path, flags)


class SSD:
    """Host handle to one Biscuit-enabled SSD.

    In a Scale-up system (multiple SSDs), open one handle per device:
    ``SSD(system, device_index=i)``, like opening ``/dev/nvme1n1``,
    ``/dev/nvme2n1``, ...  The first handle on a device builds its runtime
    and channel manager and keeps them with the device; every later handle
    on that device shares them.
    """

    def __init__(self, system: System, device_index: int = 0):
        self.system = system
        self.device_index = device_index
        self.dev_path = "/dev/nvme%dn1" % device_index
        device = system.devices[device_index]
        if device.biscuit is None:
            fs = system.filesystems[device_index]
            device.biscuit = (BiscuitRuntime(system, device=device, fs=fs),
                              ChannelManager(system.sim, system.cpu, device))
        self.runtime, self.channels = device.biscuit

    # ---------------------------------------------------------------- modules
    def load(self, module: SSDletModule) -> Generator:
        """Fiber: hold ``module``; returns the id of the device's one copy.

        The first holder deploys the image if missing and pays the timed
        load.  A later holder shares the copy or waits for the load in
        flight: it loads again if that load was interrupted (a hedge loser)
        and fails with it if the device failed it.
        """
        residency = self.runtime.residency
        held = residency.get(module.name)
        if held is not None:
            held.holders += 1
            if held.mid is not None:
                return held.mid
            if held.loaded is None:  # an uncontended load makes no event
                held.loaded = Event(self.system.sim)
            try:
                mid = yield held.loaded
            except BaseException:
                if residency.get(module.name) is held:
                    held.holders -= 1
                raise
            if mid is None:
                mid = yield from self.load(module)
            return mid
        held = residency[module.name] = Residency()
        try:
            if not self.runtime.fs.exists(module.image_path):
                write_module_image(self.runtime.fs, module.image_path, module)
            held.mid = yield from self.loadModule(module.image_path)
        except BaseException as exc:
            del residency[module.name]
            if held.loaded is not None:
                if isinstance(exc, Interrupt):
                    held.loaded.succeed(None)
                else:
                    held.loaded.fail(exc)
            raise
        if held.loaded is not None:
            held.loaded.succeed(held.mid)
        return held.mid

    def holding(self, module: SSDletModule,
                program: Callable[[int], Generator]) -> Generator:
        """Fiber: ``load`` the module, run ``program(mid)`` and drop the hold
        on every path out; returns what the program returns."""
        mid = yield from self.load(module)
        try:
            value = yield from program(mid)
        finally:
            yield from self.unloadModule(mid)
        return value

    def loadModule(self, path: str) -> Generator:
        """Fiber: load a private copy of the SSDlet module image at
        ``path``; returns the module id."""
        inode = self.runtime.fs.lookup(path)
        mid = yield from self.channels.control_call(self.runtime.load_module(inode))
        return mid

    def unloadModule(self, mid: int) -> Generator:
        """Fiber: drop one hold on a module; the last holder's timed unload
        frees it (all of its instances must have finished)."""
        runtime = self.runtime
        name = runtime._get_module(mid).module.name
        held = runtime.residency.get(name)
        if held is not None and held.mid == mid:
            held.holders -= 1
            if held.holders:
                return
            del runtime.residency[name]  # a load from here on makes a new copy
        yield from self.channels.control_call(runtime.unload_module(mid))
