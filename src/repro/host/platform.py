"""Full-system wiring: simulator + SSD + filesystem + host CPU + I/O paths.

One :class:`System` models the paper's testbed (Section V-A): a Dell R720
class host with 24 hardware threads attached to the target SSD.  "Conv" runs
read data over :attr:`System.io` (the conventional host path); "Biscuit" runs
attach a :class:`~repro.core.runtime.BiscuitRuntime` to the same device and
keep data movement internal.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.fs.file import FileHandle
from repro.fs.filesystem import FileSystem
from repro.host.cpu import HostCPU
from repro.host.io import HostIO
from repro.instrument.metrics import MetricsRegistry
from repro.sim.engine import Event, Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSDDevice

__all__ = ["System"]


class System:
    """The experimental platform: a host with one or more SSDs.

    ``num_ssds=1`` is the paper's Simple organization (Fig. 1(a));
    ``num_ssds>1`` is Scale-up (Fig. 1(b)), optionally behind a shared PCIe
    switch (``fabric_bytes_per_sec``) whose saturation is the interference
    Section V-B warns about.  ``device``/``fs``/``io`` refer to SSD 0;
    additional devices live in ``devices``/``filesystems``/``ios``.
    """

    def __init__(
        self,
        ssd_config: Optional[SSDConfig] = None,
        host_cores: int = 24,
        background_threads: int = 0,
        num_ssds: int = 1,
        fabric_bytes_per_sec: Optional[float] = None,
        sim: Optional[Simulator] = None,
    ):
        if num_ssds < 1:
            raise ValueError("need at least one SSD")
        # A shared simulator lets several Systems form one simulated world
        # (the storage nodes of a Scale-out cluster, Fig. 1(d)).
        if sim is not None:
            self.sim = sim
        else:
            # race_check=True opts this world into the interleaving
            # sanitizer; None defers to the REPRO_RACE_CHECK env var.
            self.sim = Simulator(
                race_check=True if ssd_config is not None
                and ssd_config.race_check else None)
        self.fabric = None
        if fabric_bytes_per_sec is not None:
            from repro.ssd.nvme import Fabric
            self.fabric = Fabric(self.sim, fabric_bytes_per_sec)
        # One registry for every running statistic in the system: controller
        # ReadStats, cache CacheStats and UtilizationMonitor series all
        # register here, so one snapshot captures the whole platform.
        self.metrics = MetricsRegistry()
        self.devices = [
            SSDDevice(self.sim, ssd_config, fabric=self.fabric,
                      metrics=self.metrics, metrics_prefix="ssd%d" % index)
            for index in range(num_ssds)
        ]
        self.device = self.devices[0]
        self.config = self.device.config
        self.filesystems = [FileSystem(device) for device in self.devices]
        self.fs = self.filesystems[0]
        race = self.sim.race
        if race is not None:
            # Sanitizer scoreboard lands in the same sidecar snapshot.
            self.metrics.attach(
                "race", race, ("batches", "entries", "reversed_batches"))
            self.metrics.counter("race.hazards").attach(race, "hazard_count")
        self.cpu = HostCPU(self.sim, cores=host_cores)
        self.ios = [HostIO(self.sim, self.cpu, device) for device in self.devices]
        for index, io in enumerate(self.ios):
            io.trace_track = "host/io%d" % index
        self.io = self.ios[0]
        self.cpu.set_background_load(background_threads)

    @property
    def num_ssds(self) -> int:
        return len(self.devices)

    # --------------------------------------------------------------- file I/O
    def open_host(self, path: str, ssd: int = 0) -> FileHandle:
        """Open a file over the conventional host path (Conv)."""
        fs = self.filesystems[ssd]
        return FileHandle(fs, fs.lookup(path), internal=False, host_io=self.ios[ssd])

    def open_internal(self, path: str, use_matcher: bool = False, ssd: int = 0,
                      cache_bypass: bool = False) -> FileHandle:
        """Open a file over the device-internal path (what an SSDlet sees)."""
        fs = self.filesystems[ssd]
        return FileHandle(
            fs, fs.lookup(path), internal=True, use_matcher=use_matcher,
            cache_bypass=cache_bypass,
        )

    # ------------------------------------------------------------- simulation
    def process(self, generator, name: str = "") -> Event:
        return self.sim.process(generator, name=name)

    def run(self, until=None):
        return self.sim.run(until)

    def run_fiber(self, generator, name: str = "") -> object:
        """Run one fiber to completion and return its value."""
        return self.sim.run(self.sim.process(generator, name=name))

    @property
    def now_s(self) -> float:
        return self.sim.now_s

    def set_background_load(self, threads: int) -> None:
        self.cpu.set_background_load(threads)
