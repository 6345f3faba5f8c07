"""What one event costs, counted — not timed.

``sys.setprofile`` reports a ``call`` event for every Python-level function
entered or generator resumed; counted by the code object's file, the numbers
repeat exactly, so a re-grown hot path fails CI without reading a clock.
The ceilings sit a few calls above today's counts (DESIGN.md "Event
engine"): bare loop 3.50 calls in ``repro/sim/`` per event; a QD-1 one-page
host read 151 calls under ``repro/`` (60 in ``repro/sim/``) for 13 events;
an internal one 74 for 6 events.
"""

import os
import sys

import repro
from repro.host.platform import System
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.ssd.config import SSDConfig

ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
SIM = os.path.join(ROOT, "sim") + os.sep


def _python_calls(sim, fiber):
    """Run ``fiber`` to completion: (events, calls under repro/, in repro/sim/)."""
    counts = {"repro": 0, "sim": 0}

    def profiler(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(ROOT):
                counts["repro"] += 1
                if filename.startswith(SIM):
                    counts["sim"] += 1

    process = sim.process(fiber)
    before = sim.events_processed
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        sim.run(process)
    finally:
        sys.setprofile(previous)
    return sim.events_processed - before, counts["repro"], counts["sim"]


def _one_page_reads(kind, fast_path, reads=50):
    """Per-read (events, calls under repro/, calls in repro/sim/) of QD-1
    one-page reads on a warm system."""
    system = System(ssd_config=SSDConfig(sim_fast_path=fast_path))
    system.fs.install_synthetic("/point.dat", 64 << 20)
    handle = (system.open_host("/point.dat") if kind == "host"
              else system.open_internal("/point.dat"))
    page = system.fs.page_size

    def program(count):
        for index in range(count):
            yield from handle.read_timing_only(
                (index * 7919 % 16384) * page, page)

    system.run_fiber(program(4))  # fill the fused-schedule cache
    events, calls, sim_calls = _python_calls(system.sim, program(reads))
    # Two events and a handful of calls belong to the measuring fiber.
    return (events - 2) / reads, calls / reads, sim_calls / reads


def test_request_timeout_release_costs_at_most_four_sim_calls_per_event():
    sim = Simulator(race_check=False)
    core = Resource(sim, capacity=1)

    def loop(count):
        for _ in range(count):
            yield core.request()
            yield sim.timeout(5)
            core.release()

    events, _calls, sim_calls = _python_calls(sim, loop(500))
    assert events == 2 * 500 + 2
    assert sim_calls / events <= 4.0


def test_one_page_host_read_call_budget():
    events, calls, sim_calls = _one_page_reads("host", True)
    assert events == 13
    assert calls <= 165
    assert sim_calls <= 70


def test_one_page_internal_read_call_budget():
    events, calls, _sim_calls = _one_page_reads("internal", True)
    assert events == 6
    assert calls <= 80


def test_fast_path_makes_fewer_calls_than_per_event_for_one_page():
    for kind in ("host", "internal"):
        fast_events, fast_calls, _ = _one_page_reads(kind, True)
        slow_events, slow_calls, _ = _one_page_reads(kind, False)
        assert fast_events < slow_events
        assert fast_calls < slow_calls, kind
