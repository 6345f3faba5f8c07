#!/usr/bin/env python3
"""Quickstart: write your first SSDlet and run it near the data.

Builds the simulated platform, deploys a module with one custom SSDlet (a
line filter), wires it to the host program through typed ports, and runs it
— the full Biscuit programming model of the paper's Section III in ~60
lines of user code.

Run:  python examples/quickstart.py
"""

from repro.core import (
    SSD,
    Application,
    DeviceFile,
    SSDLet,
    SSDLetProxy,
    SSDletModule,
)
from repro.host.platform import System

# 1. Define a device-side task (an SSDlet) and register it in a module.
QUICKSTART_MODULE = SSDletModule("quickstart")


class LineFilter(SSDLet):
    """Reads a file on the device and emits only lines containing a keyword.

    Args: (file_token, keyword).  Output port 0 carries matching lines.
    """

    OUT_TYPES = (str,)

    def run(self):
        handle = yield from self.open(self.arg(0))
        keyword = self.arg(1)
        data = yield from handle.read(0, handle.size)
        # Charge device-CPU time for the scan (the runtime makes this easy
        # to forget in a simulator; a real SSDlet would simply burn cycles).
        yield from self.compute(len(data) / 120e6 * 1e6)
        for line in data.decode().splitlines():
            if keyword in line:
                yield from self.out(0).put(line)


QUICKSTART_MODULE.register("idLineFilter", LineFilter)


def main():
    # 2. Build the platform: a host plus one Biscuit-enabled SSD.
    system = System()
    ssd = SSD(system)

    # 3. Put some data on the device.
    text = "\n".join(
        "record %04d status=%s" % (i, "ERROR" if i % 37 == 0 else "ok")
        for i in range(2000)
    )
    system.fs.install("/data/records.txt", text.encode())

    # 4. The host program: create the SSDlet, wire ports, then run the
    #    application while collecting results.  ssd.holding loads the
    #    module for it (writing its image to the device first) and unloads
    #    it on every path out.  Host programs are fibers — simulated time
    #    advances while they run.
    def host_program(mid):
        app = Application(ssd, "quickstart")
        token = DeviceFile(ssd, "/data/records.txt")
        ssdlet = SSDLetProxy(app, mid, "idLineFilter", (token, "ERROR"))
        port = app.connectTo(ssdlet.out(0), str)
        # run() starts the application — statically verifying the wiring
        # first (type-matched ports, nothing dangling), warning or, with
        # verify="strict", refusing before any device state is committed;
        # see README "Static analysis" — then drains the port, waits for
        # the SSDlet to finish, and stops the application on every path out.
        matches = yield from app.run(port.drain())
        return matches

    matches = system.run_fiber(ssd.holding(QUICKSTART_MODULE, host_program))

    print("found %d matching lines in %.3f simulated ms:" %
          (len(matches), system.sim.now_us / 1000))
    for line in matches[:5]:
        print("  ", line)
    print("   ...")
    expected = sum(1 for i in range(2000) if i % 37 == 0)
    assert len(matches) == expected, (len(matches), expected)
    print("OK — only the %d matching lines crossed the host interface." % expected)


if __name__ == "__main__":
    main()
