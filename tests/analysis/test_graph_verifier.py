"""Graph verifier (RPR101-RPR107): findings, provenance, the start() hook."""

import warnings

import pytest

from repro.analysis import GraphVerificationError, verify_links
from repro.core import (
    SSD,
    Application,
    HostTask,
    HostTaskProxy,
    SSDLet,
    SSDLetProxy,
    SSDletModule,
    write_module_image,
)
from repro.core.links import Link
from repro.core.errors import GraphWarning, PortConnectionError
from repro.core.provenance import caller_site

from tests.core.helpers import IMAGE_PATH, deploy


class Opaque:
    """Deliberately unregistered payload type (not Packet-serializable)."""


class OpaqueSource(SSDLet):
    OUT_TYPES = (Opaque,)

    def run(self):
        yield from self.out(0).put(Opaque())


class OpaqueSink(SSDLet):
    IN_TYPES = (Opaque,)

    def run(self):
        yield from self.in_(0).get()


GRAPH_TEST_MODULE = SSDletModule("analysis-graph-test")
GRAPH_TEST_MODULE.register("idOpaqueSource", OpaqueSource)
GRAPH_TEST_MODULE.register("idOpaqueSink", OpaqueSink)
GRAPH_IMAGE_PATH = "/var/isc/slets/analysis_graph.slet"


@pytest.fixture
def ssd(system):
    deploy(system)
    if not system.fs.exists(GRAPH_IMAGE_PATH):
        write_module_image(system.fs, GRAPH_IMAGE_PATH, GRAPH_TEST_MODULE)
    return SSD(system)


def load(system, ssd, path=IMAGE_PATH):
    return system.run_fiber(ssd.loadModule(path))


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


# ----------------------------------------------------------------- clean graphs
def test_clean_pipeline_no_findings(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd)
    producer = SSDLetProxy(app, mid, "idProducer", (4,))
    doubler = SSDLetProxy(app, mid, "idDoubler")
    app.connect(producer.out(0), doubler.in_(0))
    app.connectTo(doubler.out(0), int)
    assert app.verify() == []


# ------------------------------------------------------------- RPR101 (types)
def test_type_mismatch_reported(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    source = SSDLetProxy(app, mid, "idStrSource")
    doubler = SSDLetProxy(app, mid, "idDoubler")
    findings = verify_links([Link(source.out(0), doubler.in_(0))])
    assert rules_of(findings) == ["RPR101"]
    assert "str" in findings[0].message and "int" in findings[0].message


def test_reversed_endpoints_reported(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    producer = SSDLetProxy(app, mid, "idProducer", (1,))
    doubler = SSDLetProxy(app, mid, "idDoubler")
    findings = verify_links([Link(doubler.in_(0), producer.out(0))])
    assert rules_of(findings) == ["RPR101"]
    assert "reversed" in findings[0].message


def test_missing_port_index_reported(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    producer = SSDLetProxy(app, mid, "idProducer", (1,))
    doubler = SSDLetProxy(app, mid, "idDoubler")
    findings = verify_links([Link(producer.out(3), doubler.in_(0))])
    assert rules_of(findings) == ["RPR101"]
    assert "no output port 3" in findings[0].message


# -------------------------------------------------- RPR102/RPR103 (dangling)
def test_dangling_ports_reported_with_declaration_site(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    SSDLetProxy(app, mid, "idDoubler")  # never wired
    findings = app.verify()
    assert rules_of(findings) == ["RPR102", "RPR103"]
    for finding in findings:
        assert finding.path.endswith("test_graph_verifier.py")
        assert finding.line > 0
    assert "no producer" in findings[0].message
    assert "no consumer" in findings[1].message


def test_findings_are_deterministic(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    SSDLetProxy(app, mid, "idDoubler")
    SSDLetProxy(app, mid, "idConsumer")
    first = app.verify()
    second = app.verify()
    assert first == second
    assert [f.rule for f in first] == sorted(f.rule for f in first)


# --------------------------------------------------------- RPR104 (SPSC dup)
def test_duplicate_spsc_binding_reported(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    producer = SSDLetProxy(app, mid, "idProducer", (2,))
    app.connectTo(producer.out(0), int)
    app.connectTo(producer.out(0), int)  # host-device queues are SPSC
    findings = app.verify()
    assert rules_of(findings) == ["RPR104"]
    assert "bound 2 times" in findings[0].message


# -------------------------------------------------- RPR105/RPR106 (topology)
def test_reachable_cycle_reported(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    producer = SSDLetProxy(app, mid, "idProducer", (1,))
    stage_a = SSDLetProxy(app, mid, "idDoubler")
    stage_b = SSDLetProxy(app, mid, "idDoubler")
    app.connect(producer.out(0), stage_a.in_(0))
    app.connect(stage_a.out(0), stage_b.in_(0))
    app.connect(stage_b.out(0), stage_a.in_(0))  # back edge
    findings = app.verify()
    assert rules_of(findings) == ["RPR106"]
    assert "cycle" in findings[0].message


def test_sourceless_cycle_is_unreachable_and_cyclic(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    stage_a = SSDLetProxy(app, mid, "idDoubler")
    stage_b = SSDLetProxy(app, mid, "idDoubler")
    app.connect(stage_a.out(0), stage_b.in_(0))
    app.connect(stage_b.out(0), stage_a.in_(0))
    findings = app.verify()
    assert [f.rule for f in findings] == ["RPR105", "RPR105", "RPR106"]


# ------------------------------------------------------ RPR107 (serializable)
def test_non_serializable_inter_application_link(system, ssd):
    mid = load(system, ssd, GRAPH_IMAGE_PATH)
    app_a = Application(ssd, "opaque-a", verify="off")
    app_b = Application(ssd, "opaque-b", verify="off")
    source = SSDLetProxy(app_a, mid, "idOpaqueSource")
    sink = SSDLetProxy(app_b, mid, "idOpaqueSink")
    findings = verify_links([Link(source.out(0), sink.in_(0))])
    assert rules_of(findings) == ["RPR107"]
    assert "no registered serializer" in findings[0].message


def test_same_application_link_needs_no_serializer(system, ssd):
    mid = load(system, ssd, GRAPH_IMAGE_PATH)
    app = Application(ssd, verify="off")
    source = SSDLetProxy(app, mid, "idOpaqueSource")
    sink = SSDLetProxy(app, mid, "idOpaqueSink")
    # Inter-SSDlet queues pass references; no Packet boundary, no RPR107.
    assert verify_links([Link(source.out(0), sink.in_(0))]) == []


# --------------------------------------------------------------- start() hook
def test_strict_mode_rejects_before_any_device_state(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="strict")
    SSDLetProxy(app, mid, "idProducer", (5,))  # output never consumed

    def program():
        yield from app.start()

    with pytest.raises(GraphVerificationError) as excinfo:
        system.run_fiber(program())
    assert any(f.rule == "RPR103" for f in excinfo.value.findings)
    # Refused before instantiation: no device instances were created.
    assert app.device_app.instances == []
    assert not app.started


def test_warn_mode_emits_graph_warnings(system, ssd):
    mid = load(system, ssd)

    def program():
        app = Application(ssd)  # default mode is "warn"
        SSDLetProxy(app, mid, "idProducer", (1,))
        yield from app.start()

    with pytest.warns(GraphWarning, match="RPR103"):
        system.run_fiber(program())


def test_verify_off_is_silent(system, ssd):
    mid = load(system, ssd)

    def program():
        app = Application(ssd, verify="off")
        SSDLetProxy(app, mid, "idProducer", (1,))
        yield from app.start()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        system.run_fiber(program())
    assert not [w for w in caught if issubclass(w.category, GraphWarning)]


def test_env_variable_sets_default_mode(system, ssd, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY_GRAPH", "strict")
    mid = load(system, ssd)
    app = Application(ssd)
    SSDLetProxy(app, mid, "idProducer", (1,))

    def program():
        yield from app.start()

    with pytest.raises(GraphVerificationError):
        system.run_fiber(program())


def test_invalid_verify_mode_rejected(system, ssd):
    with pytest.raises(ValueError):
        Application(ssd, verify="loud")


# ------------------------------------------------------------- real pipeline
def test_string_search_pipeline_is_clean_under_strict(system, monkeypatch):
    from repro.apps.string_search import install_weblog, run_biscuit_search

    monkeypatch.setenv("REPRO_VERIFY_GRAPH", "strict")
    _, hits = install_weblog(system, "/data/web.log", 24_000, "needle")
    count, _ = run_biscuit_search(system, "/data/web.log", "needle", num_searchers=2)
    assert count == hits


# ------------------------------------------------- every link shape at once
class HostEmitter(HostTask):
    OUT_TYPES = (int,)

    def run(self):
        yield from self.out(0).put(1)


class HostSink(HostTask):
    IN_TYPES = (int,)

    def run(self):
        yield from self.in_(0).get()


def _inject(app, out_ep, in_ep):
    """Declare a link connect() itself would refuse (RPR101 needs one)."""
    app._links.append(Link(out_ep, in_ep, caller_site(2)))


def _mixed_graph(ssd, mid, gmid):
    """Two applications holding every link shape — connectTo, connectFrom,
    HostTask<->SSDlet, host-local, inter-SSDlet, inter-application — and a
    defect of each rule RPR101-RPR107."""
    app = Application(ssd, "mix-a", verify="off")
    peer = Application(ssd, "mix-b", verify="off")
    producer = SSDLetProxy(app, mid, "idProducer", (2,))
    doubler = SSDLetProxy(app, mid, "idDoubler")
    app.connect(producer.out(0), doubler.in_(0))
    app.connectTo(doubler.out(0), int)
    app.connectTo(doubler.out(0), int)  # host-device queues are SPSC
    fed = SSDLetProxy(app, mid, "idConsumer")
    app.connectFrom(int, fed.in_(0))
    emitter = HostTaskProxy(app, HostEmitter)
    device_sink = SSDLetProxy(app, mid, "idConsumer")
    app.connect(emitter.out(0), device_sink.in_(0))
    local_emitter = HostTaskProxy(app, HostEmitter)
    local_sink = HostTaskProxy(app, HostSink)
    app.connect(local_emitter.out(0), local_sink.in_(0))
    exporter = SSDLetProxy(app, mid, "idProducer", (1,))
    importer = SSDLetProxy(peer, mid, "idConsumer")
    app.connect(exporter.out(0), importer.in_(0))
    opaque = SSDLetProxy(app, gmid, "idOpaqueSource")
    app.connectTo(opaque.out(0), Opaque)
    opaque_exporter = SSDLetProxy(app, gmid, "idOpaqueSource")
    opaque_importer = SSDLetProxy(peer, gmid, "idOpaqueSink")
    app.connect(opaque_exporter.out(0), opaque_importer.in_(0))
    SSDLetProxy(app, mid, "idConsumer")
    SSDLetProxy(app, mid, "idProducer", (1,))
    stage_a = SSDLetProxy(app, mid, "idDoubler")
    stage_b = SSDLetProxy(app, mid, "idDoubler")
    app.connect(stage_a.out(0), stage_b.in_(0))
    app.connect(stage_b.out(0), stage_a.in_(0))
    text = SSDLetProxy(app, mid, "idStrSource")
    number = SSDLetProxy(app, mid, "idDoubler")
    _inject(app, text.out(0), number.in_(0))
    _inject(app, number.in_(0), number.out(0))
    _inject(app, number.out(2), fed.in_(0))
    return app, peer


def _anchored(findings):
    """Each finding as ``+offset: rule message``: its line counted from
    ``_mixed_graph``'s ``def`` (every finding anchors inside it)."""
    first = _mixed_graph.__code__.co_firstlineno
    rendered = []
    for finding in findings:
        assert finding.path == __file__
        rendered.append("+%d: %s %s" % (finding.line - first, finding.rule,
                                        finding.message))
    return rendered


#: What the parent's verifier (one loop over ``_links`` + one over
#: ``_host_links`` per check) reported for ``_mixed_graph``, in order.
MIXED_GRAPH_FINDINGS = """\
+35: RPR101 idStrSource.out(0) is str but idDoubler.in(0) is int (no implicit conversion)
+36: RPR101 link endpoints reversed: connect('in', 'out') must be (output, input)
+37: RPR101 idDoubler has no output port 2
+27: RPR102 idConsumer.in(0) [int] has no producer; its first get() blocks forever
+28: RPR103 idProducer.out(0) [int] has no consumer; its first put() can never drain
+34: RPR103 idDoubler.out(0) [int] has no consumer; its first put() can never drain
+7: RPR104 idDoubler.out(0) is bound 2 times but its connection kind is SPSC
+11: RPR104 idConsumer.in(0) is bound 2 times but its connection kind is SPSC
+29: RPR105 idDoubler is unreachable: no path from a data source (fileless input, host feed, or peer application) reaches it
+30: RPR105 idDoubler is unreachable: no path from a data source (fileless input, host feed, or peer application) reaches it
+29: RPR106 dataflow cycle: idDoubler -> idDoubler -> idDoubler (bounded queues on a cycle deadlock once full)
+23: RPR107 host-to-device connection to idOpaqueSource.out(0) carries Opaque, which has no registered serializer
+26: RPR107 inter-application connection idOpaqueSource.out(0) -> idOpaqueSink.in(0) carries Opaque, which has no registered serializer
"""


def test_mixed_graph_findings_match_the_two_loop_verifier(system, ssd):
    app, peer = _mixed_graph(ssd, load(system, ssd),
                             load(system, ssd, GRAPH_IMAGE_PATH))
    assert _anchored(app.verify()) == MIXED_GRAPH_FINDINGS.splitlines()
    # The peer declared nothing, and sees the links onto its two tasks.
    assert peer.verify() == []


def test_host_program_links_refuse_a_wrong_direction(system, ssd):
    mid = load(system, ssd)
    app = Application(ssd, verify="off")
    doubler = SSDLetProxy(app, mid, "idDoubler")
    with pytest.raises(PortConnectionError):
        app.connectTo(doubler.in_(0), int)
    with pytest.raises(PortConnectionError):
        app.connectFrom(int, doubler.out(0))
