"""Serving-layer steady state: repeated app lifecycles must not leak.

The serving layer runs thousands of Application lifecycles against one
long-lived runtime, so any per-application residue — channel grants, user
arena allocations, fiber lists, link registrations, the runtime's
application roster — compounds into an eventual hang or OOM.  These are the
regression tests for :meth:`Application._teardown` and
:meth:`BiscuitRuntime.retire_application`, and each ends with the device at
rest (:func:`repro.testing.device_residue`).
"""

from repro.core import SSD, Application, SSDLetProxy
from repro.host.platform import System
from repro.serve.jobs import JobSpec, install_serve_datasets
from repro.serve.manager import JobManager, Tenant
from repro.testing import device_residue

from tests.core.helpers import TEST_MODULE

CYCLES = 100


def resource_counts(ssd):
    runtime = ssd.runtime
    return {
        "applications": len(runtime.applications),
        "links": len(runtime.links),
        "user_arena_used": runtime.allocators.user.used,
        "loaded_modules": len(runtime.loaded_modules),
        "data_channels_free": ssd.channels.data_channels.available,
    }


def test_hundred_lifecycles_hold_steady_state():
    system = System()
    ssd = SSD(system)
    mid = system.run_fiber(ssd.load(TEST_MODULE))
    baseline = resource_counts(ssd)

    def one_cycle(index):
        app = Application(ssd, "cycle-%d" % index)
        producer = SSDLetProxy(app, mid, "idProducer", (3,))
        port = app.connectTo(producer.out(0), int)
        yield from app.start()
        values = yield from port.drain()
        yield from app.wait()
        return values

    for index in range(CYCLES):
        assert system.run_fiber(one_cycle(index)) == [0, 1, 2]
        assert resource_counts(ssd) == baseline, (
            "resource leak after %d lifecycles" % (index + 1))
    assert device_residue(system) == []


def test_stop_releases_resources_like_wait():
    system = System()
    ssd = SSD(system)
    mid = system.run_fiber(ssd.load(TEST_MODULE))
    baseline = resource_counts(ssd)

    def one_cycle(index):
        app = Application(ssd, "stopped-%d" % index)
        # A consumer fed from the host never ends on its own; stop() must
        # still tear the application down completely.
        consumer = SSDLetProxy(app, mid, "idConsumer")
        port = app.connectFrom(int, consumer.in_(0))
        yield from app.start()
        yield from port.put(index)
        app.stop()

    for index in range(20):
        system.run_fiber(one_cycle(index))
        # Interrupted fibers unwind at their next resume point; drain the
        # event queue so their teardown finally-blocks run.
        system.sim.run()
        counts = resource_counts(ssd)
        assert counts == baseline, (
            "leak after stop() cycle %d: %r vs %r"
            % (index + 1, counts, baseline))
    assert device_residue(system) == []


def test_serving_churn_leaves_runtime_clean():
    """100 served jobs (module churn included) end at the boot footprint."""
    system = System()
    install_serve_datasets(system)
    manager = JobManager(system, [Tenant("a", queue_limit=8)])
    server = manager.servers[0]
    runtime = server.ssd.runtime
    kinds = ("string_search", "pointer_chase", "db_scan")

    def churn():
        for index in range(CYCLES):
            manager.submit(JobSpec(tenant="a", kind=kinds[index % 3]))
            yield from manager.drain()

    system.run_fiber(churn())
    assert manager.idle
    assert runtime.applications == []
    assert runtime.loaded_modules == ()
    assert runtime.allocators.user.used == 0
    assert server.slots.slots_in_use == 0
    assert server.slots.dram_reserved_bytes == 0
    assert server.ssd.channels.data_channels.available == \
        server.config.channel_pool_size
    assert device_residue(system) == []
