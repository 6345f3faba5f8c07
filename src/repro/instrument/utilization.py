"""Windowed utilization of named resources, with sparkline rendering."""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.instrument.metrics import MetricsRegistry
from repro.sim.engine import Interrupt, Process, Simulator
from repro.sim.resources import Resource
from repro.sim.units import s_to_ns

__all__ = ["UtilizationMonitor"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


class UtilizationMonitor:
    """Samples resources every ``interval_s`` of simulated time.

    Use :meth:`for_system` to watch the interesting resources of a
    :class:`~repro.host.platform.System` (host cores, device cores, channel
    buses, PCIe link) without naming them by hand.
    """

    def __init__(self, sim: Simulator, interval_s: float = 0.01,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "util"):
        self.sim = sim
        self.interval_ns = s_to_ns(interval_s)
        # Samples land in registry Series metrics (a private registry when
        # none is given); ``self.series[name]`` aliases each Series' point
        # list, so the legacy dict-of-points API is unchanged.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.prefix = prefix
        self._groups: Dict[str, List[Resource]] = {}
        self._caches: Dict[str, object] = {}  # DeviceReadCache by group name
        self._last: Dict[str, int] = {}
        self._last_cache: Dict[str, Tuple[int, int]] = {}  # (hits, lookups)
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self._fiber: Optional[Process] = None

    def _register_series(self, name: str) -> None:
        metric = self.registry.series("%s.%s" % (self.prefix, name))
        self.series[name] = metric.points

    @classmethod
    def for_system(cls, system, interval_s: float = 0.01) -> "UtilizationMonitor":
        monitor = cls(system.sim, interval_s,
                      registry=getattr(system, "metrics", None))
        monitor.watch("host-cores", [system.cpu.cores])
        for index, device in enumerate(system.devices):
            suffix = "" if len(system.devices) == 1 else "-%d" % index
            monitor.watch("ssd-channels%s" % suffix,
                          [ch.bus for ch in device.nand.channels])
            monitor.watch("device-cores%s" % suffix, [device.cores])
            monitor.watch("pcie%s" % suffix, [device.interface.link])
            if device.cache.enabled:
                monitor.watch_cache("read-cache%s" % suffix, device.cache)
        return monitor

    # ----------------------------------------------------------------- setup
    def watch(self, name: str, resources: List[Resource]) -> None:
        if self._fiber is not None:
            raise RuntimeError("cannot add groups while running")
        self._groups[name] = list(resources)
        self._register_series(name)

    def watch_cache(self, name: str, cache) -> None:
        """Sample a device read cache's windowed hit rate alongside the
        resource groups (its series plots hits / lookups per interval)."""
        if self._fiber is not None:
            raise RuntimeError("cannot add groups while running")
        self._caches[name] = cache
        self._register_series(name)

    def start(self) -> None:
        if self._fiber is not None:
            return
        for name in self._groups:
            self._last[name] = self._busy(name)
        for name, cache in self._caches.items():
            self._last_cache[name] = (cache.stats.hits, cache.stats.lookups)
        self._fiber = self.sim.process(self._sampler(), name="util-monitor")
        self._fiber.defused = True

    def stop(self) -> None:
        if self._fiber is None:
            return
        if self._fiber.is_alive:
            self._fiber.interrupt("monitor stop")
        self._fiber = None

    # -------------------------------------------------------------- sampling
    def _busy(self, name: str) -> int:
        return sum(resource.busy_area() for resource in self._groups[name])

    def _capacity(self, name: str) -> int:
        return sum(resource.capacity for resource in self._groups[name])

    def _sampler(self) -> Generator:
        try:
            while True:
                yield self.sim.timeout(self.interval_ns)
                for name in self._groups:
                    busy = self._busy(name)
                    delta = busy - self._last[name]
                    self._last[name] = busy
                    utilization = delta / (self.interval_ns * self._capacity(name))
                    self.series[name].append((self.sim.now / 1e9, utilization))
                for name, cache in self._caches.items():
                    hits, lookups = cache.stats.hits, cache.stats.lookups
                    last_hits, last_lookups = self._last_cache[name]
                    self._last_cache[name] = (hits, lookups)
                    window = lookups - last_lookups
                    rate = (hits - last_hits) / window if window else 0.0
                    self.series[name].append((self.sim.now / 1e9, rate))
        except Interrupt:
            return

    # ----------------------------------------------------------------- query
    def mean(self, name: str) -> float:
        points = [value for _, value in self.series[name]]
        return sum(points) / len(points) if points else 0.0

    def peak(self, name: str) -> float:
        return max((value for _, value in self.series[name]), default=0.0)

    # ---------------------------------------------------------------- render
    def sparkline(self, name: str, width: int = 60) -> str:
        points = [value for _, value in self.series[name]]
        if not points:
            return "(no samples)"
        if len(points) > width:
            # Downsample by averaging buckets.
            bucket = len(points) / width
            points = [
                sum(points[int(i * bucket):max(int(i * bucket) + 1, int((i + 1) * bucket))])
                / max(1, len(points[int(i * bucket):max(int(i * bucket) + 1, int((i + 1) * bucket))]))
                for i in range(width)
            ]
        cells = "".join(
            _BLOCKS[min(len(_BLOCKS) - 1, int(value * (len(_BLOCKS) - 1) + 0.5))]
            for value in points
        )
        return cells

    def report(self, width: int = 60) -> str:
        lines = []
        names = list(self._groups) + list(self._caches)
        label_width = max((len(name) for name in names), default=0)
        for name in names:
            lines.append("%s |%s| mean %4.0f%% peak %4.0f%%" % (
                name.rjust(label_width), self.sparkline(name, width),
                self.mean(name) * 100, self.peak(name) * 100,
            ))
        return "\n".join(lines)
