"""Shared SSDlet classes for core framework tests."""

from typing import Tuple

from repro.core import Packet, SSDLet, SSDletModule, write_module_image
from repro.core.errors import PortClosed

TEST_MODULE = SSDletModule("core-test-module")
IMAGE_PATH = "/var/isc/slets/core_test.slet"


class Producer(SSDLet):
    """Emits ints 0..count-1 on out(0).  Args: (count,)."""

    OUT_TYPES = (int,)
    ARG_TYPES = (int,)

    def run(self):
        for i in range(self.arg(0)):
            yield from self.out(0).put(i)


class Consumer(SSDLet):
    """Collects everything from in_(0) into self.received."""

    IN_TYPES = (int,)

    def run(self):
        self.received = []
        while True:
            try:
                self.received.append((yield from self.in_(0).get()))
            except PortClosed:
                return


class Doubler(SSDLet):
    """int -> int pipeline stage multiplying by two."""

    IN_TYPES = (int,)
    OUT_TYPES = (int,)

    def run(self):
        while True:
            try:
                value = yield from self.in_(0).get()
            except PortClosed:
                return
            yield from self.out(0).put(value * 2)


class StrSource(SSDLet):
    """Emits one string (for type-mismatch tests)."""

    OUT_TYPES = (str,)

    def run(self):
        yield from self.out(0).put("text")


class PacketEcho(SSDLet):
    """Packet -> Packet passthrough (inter-application tests)."""

    IN_TYPES = (Packet,)
    OUT_TYPES = (Packet,)

    def run(self):
        while True:
            try:
                value = yield from self.in_(0).get()
            except PortClosed:
                return
            yield from self.out(0).put(value)


class FileReader(SSDLet):
    """Reads a granted file fully; stores bytes in self.data.  Args: (token,)."""

    def run(self):
        handle = yield from self.open(self.arg(0))
        self.data = yield from handle.read(0, handle.size)


class Allocator(SSDLet):
    """Allocates user memory and leaves it allocated (teardown test)."""

    def run(self):
        self.address = self.malloc(4096)
        yield self._runtime.sim.timeout(100_000_000)  # stay alive for 100 ms


class Freer(SSDLet):
    """Mallocs and mfrees one block, then mfrees the address in arg(0),
    which another owner holds.  Records user-arena usage around its own
    block in self.before / self.during / self.after."""

    ARG_TYPES = (int,)

    def run(self):
        arena = self._runtime.allocators.user
        self.before = arena.used
        address = self.malloc(4096)
        self.during = arena.used
        self.mfree(address)
        self.after = arena.used
        yield self._runtime.sim.timeout(0)
        self.mfree(self.arg(0))


class Crasher(SSDLet):
    """Raises mid-run after producing one value."""

    OUT_TYPES = (int,)

    def run(self):
        yield from self.out(0).put(1)
        raise RuntimeError("ssdlet crashed")


for class_id, cls in [
    ("idProducer", Producer), ("idConsumer", Consumer), ("idDoubler", Doubler),
    ("idStrSource", StrSource), ("idPacketEcho", PacketEcho),
    ("idFileReader", FileReader), ("idAllocator", Allocator),
    ("idFreer", Freer), ("idCrasher", Crasher),
]:
    TEST_MODULE.register(class_id, cls)


def deploy(system):
    """Install the test module image; returns its path."""
    if not system.fs.exists(IMAGE_PATH):
        write_module_image(system.fs, IMAGE_PATH, TEST_MODULE)
    return IMAGE_PATH
