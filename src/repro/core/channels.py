"""Host↔device channel managers (Section IV-B / IV-C).

All requests from a host program to SSDlets travel through *channels*
maintained by a channel manager on each side.  libsisc keeps one **control
channel** (module load/unload, instance creation, wiring, start) and a pool
of **data channels** handed to host-to-device ports.

The cost model matches Table II: a control round trip pays the full H2D path
(host sender → interface → device receiver) plus the D2H response path, with
the device-side receive being the expensive leg.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.errors import BiscuitError
from repro.host.cpu import HostCPU
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.sim.units import us_to_ns
from repro.ssd.device import SSDDevice

__all__ = ["ChannelManager"]


class ChannelManager:
    """Host-side channel manager: one control channel + a data-channel pool."""

    CONTROL_REQUEST_BYTES = 256
    CONTROL_RESPONSE_BYTES = 128

    def __init__(self, sim: Simulator, cpu: HostCPU, device: SSDDevice):
        self.sim = sim
        self.cpu = cpu
        self.device = device
        self.config = device.config
        self.data_channels = Resource(
            sim, capacity=self.config.channel_pool_size, name="data-channels"
        )
        self.control_calls = 0

    # --------------------------------------------------------------- control
    def control_call(self, device_work: Optional[Generator] = None) -> Generator:
        """Fiber: one control-channel RPC; returns the device work's value.

        Request crosses H2D (host sender, interface, device receiver), the
        device work runs, and the response crosses D2H.
        """
        config = self.config
        self.control_calls += 1
        # Request: host channel-manager send, interface crossing, device recv.
        yield from self.cpu.occupy(config.h2d_host_sender_us)
        yield from self.interface_crossing(self.CONTROL_REQUEST_BYTES, to_host=False)
        yield from self.device.controller.device_compute(config.h2d_device_receiver_us)
        value = None
        if device_work is not None:
            value = yield from device_work
        # Response: device send, interface crossing, host receive + wakeup.
        yield from self.device.controller.device_compute(config.d2h_device_sender_us)
        yield from self.interface_crossing(self.CONTROL_RESPONSE_BYTES, to_host=True)
        yield from self.cpu.occupy(config.d2h_host_receiver_us)
        yield self.sim.timeout(us_to_ns(config.fiber_schedule_us))
        return value

    # ------------------------------------------------------------------ data
    def acquire_data_channel(self) -> Generator:
        """Fiber: take a data channel from the pool (blocks when exhausted).

        The pool bounds the number of simultaneously-used channels; channels
        are reused rather than recreated (Section IV-B).
        """
        yield self.data_channels.request()

    def release_data_channel(self) -> None:
        self.data_channels.release()

    # ------------------------------------------------------------- interface
    def interface_crossing(self, nbytes: int, to_host: bool) -> Generator:
        """Fiber: one crossing of the host interface — the payload leg of a
        host-to-device port transfer and of each half of a control call."""
        if to_host:
            yield self.sim.timeout(us_to_ns(self.config.d2h_interface_us))
            yield from self.device.interface.transfer_to_host(nbytes)
        else:
            yield self.sim.timeout(us_to_ns(self.config.h2d_interface_us))
            yield from self.device.interface.transfer_to_device(nbytes)
