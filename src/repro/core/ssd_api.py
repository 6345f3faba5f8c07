"""The host-side SSD facade and File tokens (libsisc's SSD / File classes).

``SSD(system)`` is the paper's ``SSD ssd("/dev/nvme0n1")``: a handle on the
device's one Biscuit runtime and channel manager, providing module
load/unload plus :class:`DeviceFile` tokens.  A DeviceFile *is* the grant:
the runtime opens a file for an SSDlet only through a token the host
program made on that device — the permission inheritance of Section III-D.
"""

from __future__ import annotations

from typing import Generator

from repro.core.channels import ChannelManager
from repro.core.module import SSDletModule, write_module_image
from repro.core.runtime import BiscuitRuntime
from repro.host.platform import System

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
        """Fiber: deploy ``module``'s image if the device has none, then load
        it; returns the module id."""
        fs = self.runtime.fs
        if not fs.exists(module.image_path):
            write_module_image(fs, module.image_path, module)
        mid = yield from self.loadModule(module.image_path)
        return mid

    def loadModule(self, path: str) -> Generator:
        """Fiber: load the SSDlet module image at ``path``; returns the
        module id."""
        inode = self.runtime.fs.lookup(path)
        mid = yield from self.channels.control_call(self.runtime.load_module(inode))
        return mid

    def unloadModule(self, mid: int) -> Generator:
        """Fiber: unload a module (all of its instances must have finished)."""
        yield from self.channels.control_call(self.runtime.unload_module(mid))
