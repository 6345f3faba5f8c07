"""What one event costs, counted — not timed.

``sys.setprofile`` reports a ``call`` event for every Python-level function
entered or generator resumed; counted by the code object's file, the numbers
repeat exactly, so a re-grown hot path fails CI without reading a clock.
The ceilings sit a few calls above today's counts (DESIGN.md "Event
engine"): bare loop 3.50 calls in ``repro/sim/`` per event; a QD-1 one-page
host read 44.5 calls under ``repro/`` (26.5 in ``repro/sim/``) for 0 events
(every hold continues in line; one-page reads never fuse); an internal one
25.5 for 0 events; a one-page overwrite of a 64-extent file
23.3 calls internally, 42.6 through the host, 290 events for the 400 writes
either way.
"""

import os
import random
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

    system.run_fiber(program(4))  # warm the file and device state
    events, calls, sim_calls = _python_calls(system.sim, program(reads))
    # Two events and a handful of calls belong to the measuring fiber.
    return (events - 2) / reads, calls / reads, sim_calls / reads


def _one_page_overwrites(kind, writes=400, extents=64):
    """(events, calls under repro/ per write) of one-page ``kind`` ("host"
    or "internal") overwrites of a file grown 64 pages at a time, on
    dev_write's device."""
    system = System(ssd_config=SSDConfig(
        channels=4, dies_per_channel=2, blocks_per_die=16, pages_per_block=64))
    page = system.fs.page_size
    system.fs.create_empty("/write.dat")
    fill_handle = system.open_internal("/write.dat")
    chunk = bytes(64 * page)

    def fill():
        for index in range(extents):
            yield from fill_handle.write(index * 64 * page, chunk)
        yield from fill_handle.flush()

    system.run_fiber(fill())
    assert len(fill_handle.inode.extents) == extents
    handle = (system.open_host("/write.dat") if kind == "host"
              else system.open_internal("/write.dat"))
    rng = random.Random(7)
    targets = [rng.randrange(extents * 64) for _ in range(writes)]
    payload = b"\x01" * page

    def program():
        for file_page in targets:
            yield from handle.write(file_page * page, payload)

    events, calls, _sim_calls = _python_calls(system.sim, program())
    return events, calls / writes


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
    assert events == 0
    assert calls <= 52
    assert sim_calls <= 31


def test_one_page_internal_read_call_budget():
    events, calls, _sim_calls = _one_page_reads("internal", True)
    assert events == 0
    assert calls <= 32


def test_one_page_internal_overwrite_call_budget():
    # Page lookup is one bisect, not a walk of the file's extents, and the
    # FTL places each page without a generator frame of its own.
    events, calls = _one_page_overwrites("internal")
    assert events == 290
    assert calls <= 28


def test_one_page_host_overwrite_call_budget():
    # The driver, NVMe slot, PCIe and controller layers each hold their
    # resource in their own frame; none only forwards to the next.
    events, calls = _one_page_overwrites("host")
    assert events == 290
    assert calls <= 48


def test_one_page_reads_never_fuse():
    # A one-page read is one die hold and one bus hold: it runs per-event
    # with the fast path on, at exactly the cost it has with it off.
    for kind in ("host", "internal"):
        fast = _one_page_reads(kind, True)
        slow = _one_page_reads(kind, False)
        assert fast == slow, kind
        assert fast[0] == 0, kind  # every hold continues in line
