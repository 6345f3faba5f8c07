"""A host program whose application fails mid-run stops it on the way out.

Every app in ``repro.apps``, the serving layer's chase job and the
offloaded scan run their Application through ``Application.run``, which
reaches ``app.stop()`` on failure paths too, and hold their module through
``SSD.holding``, which drops the hold on every path: the device is left at
rest (``device_residue``) — no data channel held, no DeviceApplication
registered, no module without a holder, and no stranded fiber.
"""

from repro.apps import log_analytics, pointer_chase, string_search, wordcount
from repro.core import SSD, Application
from repro.core.errors import UncorrectableReadError
from repro.db.ndp import NDP_MODULE, page_ranges, run_offloaded_scan
from repro.host.platform import System
from repro.serve.jobs import JOB_KINDS, TABLE_SCAN, Job, JobSpec, install_serve_datasets
from repro.serve.manager import DeviceServer
from repro.sim.units import MIB
from repro.testing import device_residue
from repro.testing.faults import Fault, FaultInjector, FaultPlan, ScriptedInjector


def _attempt(system, program):
    """Run a host program; returns its value, or the device error it raised."""
    def guarded():
        try:
            return (yield from program)
        except UncorrectableReadError as error:
            return error

    return system.run_fiber(guarded())


def _assert_torn_down(system):
    system.sim.run()  # interrupted fibers finish; nothing fails unhandled
    assert device_residue(system) == []


def test_search_that_fails_after_start_releases_its_channels(
        monkeypatch):
    """20 % uncorrectable reads on a 1 MiB log: most calls die loading the
    module, but one gets past ``app.start()`` with four data channels held
    (before the launch stopped its application, that call kept them and
    stayed registered for good)."""
    system = System()
    string_search.install_weblog(system, "/log", 1 * MIB, "NEEDLE")
    system.device.attach_fault_injector(
        FaultInjector(FaultPlan(seed=1, uncorrectable_rate=0.2)))
    started = []
    real_start = Application.start

    def counting_start(app):
        yield from real_start(app)
        started.append(app.name)

    monkeypatch.setattr(Application, "start", counting_start)
    for _ in range(10):
        outcome = _attempt(system, string_search.biscuit_string_search(
            system, "/log", "NEEDLE"))
        assert isinstance(outcome, UncorrectableReadError)
        _assert_torn_down(system)
    assert started == ["string-search"]  # the failure that used to leak


def _fail_first_read_after_start(monkeypatch, system):
    """Script an uncorrectable read at the first attempt after the next
    ``Application.start()`` completes — a mid-run device fault."""
    real_start = Application.start

    def start_then_fault(app):
        yield from real_start(app)
        system.device.attach_fault_injector(
            ScriptedInjector({0: Fault("uncorrectable")}))

    monkeypatch.setattr(Application, "start", start_then_fault)


def test_pointer_chase_stops_its_application_on_a_mid_run_fault(
        monkeypatch, system):
    graph = pointer_chase.build_analytic_graph(system, "/g.bin", 100_000)
    _fail_first_read_after_start(monkeypatch, system)
    outcome = _attempt(system, pointer_chase.biscuit_pointer_chase(
        system, graph, 2, 40))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system)


def test_wordcount_stops_its_application_on_a_mid_run_fault(
        monkeypatch, system):
    system.fs.install("/in.txt", b"alpha beta gamma delta " * 10_000)
    _fail_first_read_after_start(monkeypatch, system)
    outcome = _attempt(system, wordcount.wordcount_host_program(
        system, "/in.txt"))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system)


def test_log_analytics_stops_its_application_on_a_mid_run_fault(
        monkeypatch, system):
    log_analytics.install_access_log(system, "/logs/a.log", 8000)
    _fail_first_read_after_start(monkeypatch, system)
    outcome = _attempt(system, log_analytics.biscuit_top_clients(
        system, "/logs/a.log"))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system)


def test_serve_chase_job_stops_its_application_on_a_mid_run_fault(
        monkeypatch, system):
    install_serve_datasets(system)
    server = DeviceServer(system, 0)
    kind = JOB_KINDS["pointer_chase"]
    mid = system.run_fiber(server.ssd.load(kind.module))
    job = Job(JobSpec("tenant", kind.name), system.sim, system.sim.now)
    _fail_first_read_after_start(monkeypatch, system)
    outcome = _attempt(system, kind.run(server, mid, job))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system)


def test_offloaded_scan_stops_its_application_on_a_mid_run_fault(
        monkeypatch, system):
    install_serve_datasets(system)
    ssd = SSD(system)
    mid = system.run_fiber(ssd.load(NDP_MODULE))
    _fail_first_read_after_start(monkeypatch, system)
    # 8-page chunks: each SSDlet's first read is in flight by the end of
    # start(), so the fault lands on a later chunk, mid-run.
    outcome = _attempt(system, run_offloaded_scan(
        ssd, mid, "scan", TABLE_SCAN, page_ranges(64, 2),
        lambda _index, _payload, _nbytes: None, checkpoint_pages=8))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system)
