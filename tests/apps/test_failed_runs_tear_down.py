"""A host program whose application fails mid-run stops it on the way out.

Every app in ``repro.apps`` that starts an Application reaches
``app.stop()`` on its failure paths too: no data channel stays held, no
DeviceApplication stays registered, and no stranded fiber fails later.
"""

import pytest

from repro.apps import log_analytics, pointer_chase, string_search, wordcount
from repro.core import Application
from repro.core.errors import UncorrectableReadError
from repro.host.platform import System
from repro.sim.units import MIB
from repro.testing.faults import Fault, FaultInjector, FaultPlan, ScriptedInjector


@pytest.fixture
def facades(monkeypatch):
    """Every SSD facade the apps open (they create their own), in order."""
    opened = []
    for module in (log_analytics, pointer_chase, string_search, wordcount):
        class RecordingSSD(module.SSD):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(module, "SSD", RecordingSSD)
    return opened


def _attempt(system, program):
    """Run a host program; returns its value, or the device error it raised."""
    def guarded():
        try:
            return (yield from program)
        except UncorrectableReadError as error:
            return error

    return system.run_fiber(guarded())


def _assert_torn_down(system, ssd):
    assert ssd.channels.data_channels._in_use == 0
    assert ssd.runtime.applications == []
    system.sim.run()  # interrupted fibers finish; nothing fails unhandled


def test_search_that_fails_after_start_releases_its_channels(
        facades, monkeypatch):
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
        _assert_torn_down(system, facades[-1])
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
        facades, monkeypatch, system):
    graph = pointer_chase.build_analytic_graph(system, "/g.bin", 100_000)
    _fail_first_read_after_start(monkeypatch, system)
    outcome = _attempt(system, pointer_chase.biscuit_pointer_chase(
        system, graph, 2, 40))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system, facades[-1])


def test_wordcount_stops_its_application_on_a_mid_run_fault(
        facades, monkeypatch, system):
    system.fs.install("/in.txt", b"alpha beta gamma delta " * 10_000)
    _fail_first_read_after_start(monkeypatch, system)
    outcome = _attempt(system, wordcount.wordcount_host_program(
        system, "/in.txt"))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system, facades[-1])


def test_log_analytics_stops_its_application_on_a_mid_run_fault(
        facades, monkeypatch, system):
    log_analytics.install_access_log(system, "/logs/a.log", 8000)
    _fail_first_read_after_start(monkeypatch, system)
    outcome = _attempt(system, log_analytics.biscuit_top_clients(
        system, "/logs/a.log"))
    assert isinstance(outcome, UncorrectableReadError)
    _assert_torn_down(system, facades[-1])
