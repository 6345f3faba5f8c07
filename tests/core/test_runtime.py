"""Device runtime: module load/unload, instances, memory, file permissions."""

import pytest

from repro.core import SSD, Application, DeviceFile, SSDLetProxy
from repro.core.errors import ModuleError, SafetyViolation, TypeMismatchError
from repro.core.runtime import INSTANCE_BASE_BYTES
from repro.host.platform import System
from repro.sim.engine import all_of

from tests.core.helpers import IMAGE_PATH, TEST_MODULE, deploy


@pytest.fixture
def ssd(system):
    deploy(system)
    return SSD(system)


def load(system, ssd):
    return system.run_fiber(ssd.loadModule(IMAGE_PATH))


# ------------------------------------------------------------------ handles
def test_handles_on_one_device_share_its_runtime(system, ssd):
    """Like opening /dev/nvme0n1 twice: two handles, one firmware runtime
    and one channel manager; another System's device has its own."""
    again = SSD(system)
    assert again is not ssd
    assert again.runtime is ssd.runtime
    assert again.channels is ssd.channels
    elsewhere = SSD(System())
    assert elsewhere.runtime is not ssd.runtime
    assert elsewhere.channels is not ssd.channels


def test_load_deploys_the_image_once(system, ssd):
    """The second holder shares the first one's copy: one image, one id,
    one timed load."""
    assert not system.fs.exists(TEST_MODULE.image_path)
    first = system.run_fiber(ssd.load(TEST_MODULE))
    inode = system.fs.lookup(TEST_MODULE.image_path)
    loaded_at = system.sim.now
    second = system.run_fiber(SSD(system).load(TEST_MODULE))
    assert system.fs.lookup(TEST_MODULE.image_path) is inode
    assert first == second
    assert system.sim.now == loaded_at
    assert ssd.runtime.loaded_modules == (first,)


# ------------------------------------------------------------------- modules
def test_load_module_returns_id_and_takes_time(system, ssd):
    before = system.sim.now
    mid = load(system, ssd)
    assert mid in ssd.runtime.loaded_modules
    assert system.sim.now > before


def test_load_reserves_system_memory(system, ssd):
    before = ssd.runtime.allocators.system.used
    load(system, ssd)
    assert ssd.runtime.allocators.system.used >= before + TEST_MODULE.binary_size


def test_unload_releases_memory(system, ssd):
    mid = load(system, ssd)
    used = ssd.runtime.allocators.system.used
    system.run_fiber(ssd.unloadModule(mid))
    assert mid not in ssd.runtime.loaded_modules
    assert ssd.runtime.allocators.system.used < used


def test_unload_unknown_module(system, ssd):
    with pytest.raises(ModuleError):
        system.run_fiber(ssd.unloadModule(999))


def test_load_missing_image(system, ssd):
    from repro.fs.filesystem import FsError
    with pytest.raises(FsError):
        system.run_fiber(ssd.loadModule("/no/such.slet"))


def test_load_corrupt_image(system, ssd):
    system.fs.install("/bad.slet", b"garbage" * 100)
    with pytest.raises(ModuleError):
        system.run_fiber(ssd.loadModule("/bad.slet"))


def test_module_loads_are_independent(system, ssd):
    first = load(system, ssd)
    second = load(system, ssd)
    assert first != second


def _load_time_ns():
    system = System()
    start = system.sim.now
    system.run_fiber(SSD(system).load(TEST_MODULE))
    return system.sim.now - start


def test_concurrent_holders_share_one_timed_load(system, ssd):
    """The second holder arrives while the first one's load is in flight:
    it waits for that load and shares its copy."""
    calls = ssd.channels.control_calls
    loads = [system.sim.process(ssd.load(TEST_MODULE)) for _ in range(2)]
    system.sim.run(all_of(system.sim, loads))
    assert loads[0].value == loads[1].value
    assert ssd.channels.control_calls == calls + 1
    assert ssd.runtime.loaded_modules == (loads[0].value,)
    assert ssd.runtime.residency[TEST_MODULE.name].holders == 2


def test_interrupted_loader_leaves_its_sharer_the_module(system, ssd):
    """The first holder's load is cancelled mid-flight (a hedge loser):
    the holder waiting on it loads again instead of failing with the
    interrupt, and ends up the copy's one holder."""
    loader = system.sim.process(ssd.load(TEST_MODULE))
    loader.defused = True
    sharer = system.sim.process(ssd.load(TEST_MODULE))
    system.sim.run(until=system.sim.now + 10_000)
    cancelled_at = system.sim.now
    loader.interrupt("hedge loser")
    mid = system.sim.run(sharer)
    assert system.sim.now >= cancelled_at + _load_time_ns()
    assert ssd.runtime.loaded_modules == (mid,)
    assert ssd.runtime.residency[TEST_MODULE.name].holders == 1
    system.run_fiber(ssd.unloadModule(mid))
    assert ssd.runtime.loaded_modules == ()


def test_last_holder_pays_the_unload(system, ssd):
    mid = system.run_fiber(ssd.load(TEST_MODULE))
    assert system.run_fiber(ssd.load(TEST_MODULE)) == mid
    dropped_at = system.sim.now
    system.run_fiber(ssd.unloadModule(mid))
    assert system.sim.now == dropped_at  # another holder remains
    assert ssd.runtime.loaded_modules == (mid,)
    system.run_fiber(ssd.unloadModule(mid))
    assert system.sim.now > dropped_at
    assert ssd.runtime.loaded_modules == ()
    assert ssd.runtime.residency == {}


def test_failed_builds_register_no_application(system, ssd):
    """An Application registers with the runtime at start(): builds that
    fail before run() leave nothing registered."""
    mid = load(system, ssd)
    for _ in range(3):
        app = Application(ssd)
        with pytest.raises(ModuleError):
            SSDLetProxy(app, mid, "idNoSuchClass")
    assert ssd.runtime.applications == []


def test_unload_busy_module_rejected(system, ssd):
    """A module with live instances cannot be unloaded (dynamic unloading
    is safe only when nothing runs from it)."""
    mid = load(system, ssd)

    def program():
        app = Application(ssd)
        consumer = SSDLetProxy(app, mid, "idConsumer")
        port = app.connectFrom(int, consumer.in_(0))
        yield from app.start()
        # Consumer still running (waiting on its port).
        try:
            yield from ssd.unloadModule(mid)
        except ModuleError:
            port.close()
            yield from app.wait()
            yield from ssd.unloadModule(mid)  # fine once finished
            return "rejected-then-ok"

    assert system.run_fiber(program()) == "rejected-then-ok"


# ----------------------------------------------------------------- instances
def test_instance_gets_user_memory_and_releases_on_exit(system, ssd):
    mid = load(system, ssd)
    runtime = ssd.runtime
    base = runtime.allocators.user.used

    def program():
        app = Application(ssd)
        SSDLetProxy(app, mid, "idAllocator")
        yield from app.start()
        during = runtime.allocators.user.used
        yield from app.wait()
        return during

    during = system.run_fiber(program())
    assert during >= base + INSTANCE_BASE_BYTES + 4096
    # The Allocator never freed its block; instance teardown swept it.
    assert runtime.allocators.user.used == base


def test_mfree_returns_block_and_rejects_foreign_address(system, ssd):
    mid = load(system, ssd)
    runtime = ssd.runtime
    foreign = runtime.allocators.user_alloc(64, owner="other/task#1")

    def program():
        app = Application(ssd)
        freer = SSDLetProxy(app, mid, "idFreer", (foreign,))
        yield from app.start()
        try:
            yield from app.wait()
        except SafetyViolation:
            return freer.instance

    instance = system.run_fiber(program())
    assert instance.during == instance.before + 4096
    assert instance.after == instance.before
    # The rejected mfree left the other owner's block allocated.
    assert runtime.allocators.user.owner_of(foreign) == "other/task#1"


def test_unknown_class_id(system, ssd):
    mid = load(system, ssd)

    def program():
        app = Application(ssd)
        try:
            SSDLetProxy(app, mid, "idMissing")
        except ModuleError:
            return "rejected"
        yield system.sim.timeout(0)

    assert system.run_fiber(program()) == "rejected"


def test_wrong_arg_count(system, ssd):
    mid = load(system, ssd)

    def program():
        app = Application(ssd, verify="off")  # deliberately dangling output
        SSDLetProxy(app, mid, "idProducer", (1, 2, 3))
        try:
            yield from app.start()
        except TypeMismatchError:
            return "rejected"

    assert system.run_fiber(program()) == "rejected"


# ----------------------------------------------------------- file permission
def test_granted_file_readable(system, ssd):
    mid = load(system, ssd)
    system.fs.install("/data/ok.bin", b"payload!")

    def program():
        app = Application(ssd)
        token = DeviceFile(ssd, "/data/ok.bin")
        reader = SSDLetProxy(app, mid, "idFileReader", (token,))
        yield from app.start()
        yield from app.wait()
        return reader.instance.data

    assert system.run_fiber(program()) == b"payload!"


def test_ungranted_file_rejected(system, ssd):
    """Permission inheritance: SSDlets may only open host-granted paths."""
    mid = load(system, ssd)
    system.fs.install("/data/secret.bin", b"secret")

    class FakeToken:
        path = "/data/secret.bin"
        use_matcher = False

    def program():
        app = Application(ssd)
        SSDLetProxy(app, mid, "idFileReader", (FakeToken(),))
        yield from app.start()
        try:
            yield from app.wait()
        except SafetyViolation:
            return "blocked"

    assert system.run_fiber(program()) == "blocked"


def test_forged_token_cannot_borrow_another_programs_file(system, ssd):
    """The token is the grant: program A's DeviceFile for a path does not
    let program B's SSDlets open that path through an object that merely
    carries the same ``.path``."""
    mid = load(system, ssd)
    system.fs.install("/data/a.bin", b"program A's data")

    class Forged:
        path = "/data/a.bin"
        use_matcher = False
        cache_bypass = False

    def program():
        app_a = Application(ssd, "a")
        reader_a = SSDLetProxy(app_a, mid, "idFileReader",
                               (DeviceFile(ssd, "/data/a.bin"),))
        app_b = Application(ssd, "b")
        SSDLetProxy(app_b, mid, "idFileReader", (Forged(),))
        yield from app_a.start()
        yield from app_b.start()
        yield from app_a.wait()
        try:
            yield from app_b.wait()
        except SafetyViolation:
            return reader_a.instance.data, "blocked"

    assert system.run_fiber(program()) == (b"program A's data", "blocked")


def test_token_of_another_device_rejected(system, ssd):
    mid = load(system, ssd)
    system.fs.install("/data/ok.bin", b"payload!")
    other = SSD(System())

    def program():
        app = Application(ssd)
        SSDLetProxy(app, mid, "idFileReader",
                    (DeviceFile(other, "/data/ok.bin"),))
        yield from app.start()
        try:
            yield from app.wait()
        except SafetyViolation:
            return "blocked"

    assert system.run_fiber(program()) == "blocked"


def test_system_memory_access_is_violation(system, ssd):
    mid = load(system, ssd)

    def program():
        app = Application(ssd)
        proxy = SSDLetProxy(app, mid, "idAllocator")
        yield from app.start()
        yield from app.wait()
        try:
            proxy.instance.system_memory_access(0)
        except SafetyViolation:
            return "blocked"

    assert system.run_fiber(program()) == "blocked"


# ----------------------------------------------------------------- scheduling
def test_compute_serializes_within_application(system, ssd):
    """All fibers of one application share one core (no compute overlap)."""
    runtime = ssd.runtime
    app = runtime.new_application("affinity")

    def worker():
        yield from runtime.compute(app, 100.0)

    start = system.sim.now
    fibers = [system.sim.process(worker()) for _ in range(3)]
    from repro.sim.engine import all_of
    system.sim.run(all_of(system.sim, fibers))
    assert (system.sim.now - start) / 1e3 >= 300.0  # serialized


def test_compute_parallel_across_applications(system, ssd):
    runtime = ssd.runtime
    app_a = runtime.new_application("a")
    app_b = runtime.new_application("b")
    assert app_a.core != app_b.core

    def worker(app):
        yield from runtime.compute(app, 100.0)

    start = system.sim.now
    fibers = [system.sim.process(worker(app_a)), system.sim.process(worker(app_b))]
    from repro.sim.engine import all_of
    system.sim.run(all_of(system.sim, fibers))
    assert abs((system.sim.now - start) / 1e3 - 100.0) < 0.01  # overlapped
