"""The host-side SSD facade and File tokens (libsisc's SSD / File classes).

``SSD(system)`` is the paper's ``SSD ssd("/dev/nvme0n1")``: it owns the
device's Biscuit runtime and the channel manager, and provides module
load/unload plus :class:`DeviceFile` tokens.  Creating a DeviceFile *grants*
the SSDlets of that host program access to the path — the permission
inheritance of Section III-D.
"""

from __future__ import annotations

from typing import Generator, Union

from repro.core.channels import ChannelManager
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
        self.path = path
        self.use_matcher = use_matcher
        self.cache_bypass = cache_bypass
        ssd.runtime.grant_file(path)

    def __repr__(self) -> str:
        flags = "".join(
            [", matcher" if self.use_matcher else "",
             ", cache-bypass" if self.cache_bypass else ""])
        return "DeviceFile(%r%s)" % (self.path, flags)


class SSD:
    """Host handle to one Biscuit-enabled SSD.

    In a Scale-up system (multiple SSDs), create one facade per device:
    ``SSD(system, device_index=i)`` — each gets its own runtime and channel
    manager, like opening ``/dev/nvme1n1``, ``/dev/nvme2n1``, ...
    """

    def __init__(self, system: System, device_index: int = 0):
        self.system = system
        self.device_index = device_index
        self.dev_path = "/dev/nvme%dn1" % device_index
        device = system.devices[device_index]
        fs = system.filesystems[device_index]
        self.runtime = BiscuitRuntime(system, device=device, fs=fs)
        self.channels = ChannelManager(system.sim, system.cpu, device)

    # ---------------------------------------------------------------- modules
    def loadModule(self, path_or_file: Union[str, DeviceFile]) -> Generator:
        """Fiber: load an SSDlet module image; returns the module id."""
        path = getattr(path_or_file, "path", path_or_file)
        inode = self.runtime.fs.lookup(path)
        mid = yield from self.channels.control_call(self.runtime.load_module(inode))
        return mid

    def unloadModule(self, mid: int) -> Generator:
        """Fiber: unload a module (all of its instances must have finished)."""
        yield from self.channels.control_call(self.runtime.unload_module(mid))
