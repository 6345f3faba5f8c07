"""File handles: timed reads/writes, async I/O, flush, RMW edges."""

import tracemalloc

import pytest

from repro.apps import sharded_search, string_search
from repro.core.errors import UncorrectableReadError
from repro.db.executor import ExecutionMode
from repro.db.planner import create_engine
from repro.db.tpch.datagen import load_tpch
from repro.db.tpch.queries import run_query
from repro.fs.file import FileHandle
from repro.fs.filesystem import FsError
from repro.host.platform import System
from repro.net.cluster import ScaleOutCluster
from repro.serve.jobs import JobSpec, install_serve_datasets
from repro.serve.manager import JobManager, Tenant
from repro.sim.engine import all_of
from repro.sim.units import MIB
from repro.ssd.config import SSDConfig
from repro.testing.faults import Fault, FaultInjector, FaultPlan, ScriptedInjector


def test_host_handle_requires_io(system):
    inode = system.fs.install("/f", b"data")
    with pytest.raises(ValueError):
        FileHandle(system.fs, inode, internal=False)


def test_read_returns_content_and_takes_time(system):
    system.fs.install("/f", b"abcdef" * 1000)
    handle = system.open_host("/f")

    def program():
        return (yield from handle.read(0, 12))

    assert system.run_fiber(program()) == b"abcdef" * 2
    assert system.sim.now > 0


def test_internal_read_faster_than_host_read(system):
    system.fs.install("/f", b"x" * 8192)
    host = system.open_host("/f")
    internal = system.open_internal("/f")

    t0 = system.sim.now
    system.run_fiber(host.read(0, 4096))
    host_time = system.sim.now - t0
    t0 = system.sim.now
    system.run_fiber(internal.read(0, 4096))
    internal_time = system.sim.now - t0
    assert internal_time < host_time


def test_async_reads_overlap(system):
    system.fs.install_synthetic("/big", 64 * 1024 * 1024)
    handle = system.open_internal("/big")

    def sequential():
        for i in range(8):
            yield from handle.read_timing_only(i * 1 << 20, 1 << 20)

    def overlapped():
        events = [handle.aread_timing_only(i * 1 << 20, 1 << 20) for i in range(8)]
        yield all_of(system.sim, events)

    t0 = system.sim.now
    system.run_fiber(sequential())
    seq_time = system.sim.now - t0
    t0 = system.sim.now
    system.run_fiber(overlapped())
    par_time = system.sim.now - t0
    # A single large read already stripes over all channels, so sequential
    # issue is near peak; overlap only hides per-command setup and pipeline
    # fill — but it must still help.
    assert par_time < 0.9 * seq_time


def test_write_then_read_roundtrip(system):
    system.fs.install("/w", b"\x00" * 8192)
    handle = system.open_internal("/w")
    system.run_fiber(handle.write(100, b"HELLO"))
    assert system.run_fiber(handle.read(98, 9)) == b"\x00\x00HELLO\x00\x00"


def test_write_extends_file(system):
    system.fs.install("/w2", b"ab")
    handle = system.open_internal("/w2")
    system.run_fiber(handle.write(2, b"cdef"))
    assert handle.size == 6
    assert system.run_fiber(handle.read(0, 6)) == b"abcdef"


def test_unaligned_write_preserves_neighbors(system):
    payload = bytes(range(200)) * 50  # 10000 bytes, multi-page
    system.fs.install("/rmw", payload)
    handle = system.open_internal("/rmw")
    system.run_fiber(handle.write(4090, b"XYZ"))  # straddles a page boundary
    expected = payload[:4090] + b"XYZ" + payload[4093:]
    assert system.run_fiber(handle.read(0, len(payload))) == expected


def test_awrite_returns_event(system):
    system.fs.install("/aw", b"\x00" * 4096)
    handle = system.open_internal("/aw")

    def program():
        event = handle.awrite(0, b"async")
        yield event
        return (yield from handle.read(0, 5))

    assert system.run_fiber(program()) == b"async"


def test_write_to_synthetic_rejected(system):
    system.fs.install_synthetic("/syn", 4096)
    handle = system.open_internal("/syn")
    with pytest.raises(FsError):
        system.run_fiber(handle.write(0, b"nope"))


@pytest.mark.parametrize("internal", [False, True])
def test_aread_timing_only_past_eof_fails_the_event_not_the_spawner(
        system, internal):
    system.fs.install_synthetic("/eof", 4096)
    handle = (system.open_internal("/eof") if internal
              else system.open_host("/eof"))
    event = handle.aread_timing_only(4096, 4096)  # must not raise here
    with pytest.raises(FsError):
        system.sim.run(event)
    assert system.run_fiber(handle.read_timing_only(4096, 0)) == 0


def test_flush_runs(system):
    system.fs.install("/fl", b"\x00" * 4096)
    handle = system.open_internal("/fl")
    system.run_fiber(handle.write(0, b"x"))
    system.run_fiber(handle.flush())  # must not raise


def test_host_write_path(system):
    system.fs.install("/hw", b"\x00" * 4096)
    handle = system.open_host("/hw")
    system.run_fiber(handle.write(0, b"host"))
    assert system.run_fiber(handle.read(0, 4)) == b"host"
    assert system.io.writes >= 1


def test_page_lpns_helper(system):
    system.fs.install("/pl", b"x" * 10000)
    handle = system.open_internal("/pl")
    assert len(handle.page_lpns()) == 3
    assert len(handle.page_lpns(0, 4096)) == 1


# ------------------------------------------- staged pages, aligned or not
def _rmw_reference(fs, inode, offset, data):
    """{lpn: bytes} as the always-read-modify-write staging produced it
    (the implementation before page-aligned writes skipped the re-read)."""
    page = fs.page_size
    end = offset + len(data)
    if end > inode.size:
        fs.grow(inode, end)
    first = offset // page
    current = fs.read_range(
        inode, first * page,
        min(inode.size, ((end + page - 1) // page) * page) - first * page)
    buf = bytearray(current)
    buf[offset - first * page:offset - first * page + len(data)] = data
    return {lpn: bytes(buf[i * page:(i + 1) * page])
            for i, lpn in enumerate(inode.lpns(first * page, len(buf)))}


WRITE_SHAPES = {
    # name: (initial size, offset, length)
    "aligned-one-page": (5 * 4096, 2 * 4096, 4096),
    "aligned-three-pages": (5 * 4096, 4096, 3 * 4096),
    "aligned-tail-to-eof": (10_000, 8192, 10_000 - 8192),
    "aligned-head-short-tail": (5 * 4096, 4096, 5000),
    "unaligned-head": (5 * 4096, 4096 + 17, 2 * 4096 - 17),
    "unaligned-tail": (5 * 4096, 4096, 4096 + 100),
    "unaligned-both": (5 * 4096, 4090, 10),
    "append-with-partial-tail": (2 * 4096, 2 * 4096, 4096 + 123),
    "append-from-mid-page": (10_000, 10_000, 3000),
    "growing-past-a-hole": (4096, 3 * 4096, 2 * 4096 + 5),
    "growing-unaligned": (100, 50, 3 * 4096),
    "empty-aligned": (2 * 4096, 4096, 0),
}


@pytest.mark.parametrize("shape", sorted(WRITE_SHAPES))
def test_write_stages_the_same_pages_as_read_modify_write(shape):
    size, offset, length = WRITE_SHAPES[shape]
    initial = bytes((i * 7 + 3) % 251 for i in range(size))
    data = bytes((i * 13 + 1) % 241 + 1 for i in range(length))
    expected_system, system = System(), System()
    for s in (expected_system, system):
        s.fs.install("/w", initial)
    inode = expected_system.fs.lookup("/w")
    staged = _rmw_reference(expected_system.fs, inode, offset, data)
    for lpn, content in staged.items():
        expected_system.device.store_pages([lpn], content)

    handle = system.open_internal("/w")
    system.run_fiber(handle.write(offset, data))
    staged_lpns = set(expected_system.device._buffers)
    assert set(system.device._buffers) == staged_lpns
    for lpn in staged_lpns:
        assert system.device.load_page(lpn) == \
            expected_system.device.load_page(lpn), lpn
    assert handle.size == inode.size
    assert handle.inode.extents == inode.extents
    assert system.run_fiber(handle.read(0, handle.size)) == \
        expected_system.fs.read_range(inode, 0, inode.size)


def test_repeated_writes_of_one_chunk_hold_its_bytes_once():
    """64 writes of one 256 KiB ``bytes`` fill 16 MiB of pages without a
    per-page copy: the store references the chunk.  (The small geometry
    keeps the FTL's per-block slot tables out of the measurement.)"""
    system = System(ssd_config=SSDConfig(
        channels=4, dies_per_channel=2, blocks_per_die=16, pages_per_block=64))
    page = system.fs.page_size
    chunk = bytes(64 * page)
    system.fs.create_empty("/fill")
    handle = system.open_internal("/fill")

    def fill():
        for index in range(64):
            yield from handle.write(index * len(chunk), chunk)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system.run_fiber(fill())
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert handle.size == 64 * len(chunk)
    assert grown < 2 * MIB, grown


def test_a_write_from_a_bytearray_keeps_what_was_written(system):
    page = system.fs.page_size
    system.fs.create_empty("/ba")
    handle = system.open_internal("/ba")
    buf = bytearray(b"q" * (2 * page))
    system.run_fiber(handle.write(0, buf))
    buf[:] = b"r" * len(buf)
    assert system.run_fiber(handle.read(0, 2 * page)) == b"q" * (2 * page)


def test_page_aligned_write_does_not_reread_the_range(system, monkeypatch):
    page = system.fs.page_size
    system.fs.install("/w", b"\x01" * (4 * page))
    handle = system.open_internal("/w")

    def no_reread(*_args):
        raise AssertionError("aligned write re-read its target range")

    monkeypatch.setattr(system.fs, "read_range", no_reread)
    system.run_fiber(handle.write(page, b"\x02" * (2 * page)))
    system.run_fiber(handle.write(4 * page, b"\x03" * 10))  # append to EOF
    with pytest.raises(AssertionError):
        system.run_fiber(handle.write(5, b"\x04"))


# ------------------------------------------- stream: the one readahead loop
CHUNK = 64 * 1024


def _logged_stream(system, handle, begin, end, chunk=CHUNK, busy_ns=500_000,
                   exact=False):
    """Run ``handle.stream`` with a consumer that takes simulated time;
    returns the ordered log of reads issued and chunks consumed."""
    log = []
    for name in ("aread", "aread_timing_only"):
        def logged(offset, length, issue=getattr(handle, name)):
            log.append(("read", offset, length))
            return issue(offset, length)
        setattr(handle, name, logged)

    def consume(offset, take, data):
        log.append(("consume", offset, take))
        yield system.sim.timeout(busy_ns)
        log.append(("done", offset, data))

    system.run_fiber(handle.stream(begin, end, chunk, consume, exact))
    return log


def test_stream_issues_the_next_read_before_consuming_and_only_one_ahead(system):
    system.fs.install_synthetic("/s", 4 * CHUNK)
    log = _logged_stream(system, system.open_host("/s"), 0, 4 * CHUNK)
    pages = CHUNK // system.fs.page_size
    assert log == [
        ("read", 0, CHUNK),
        ("read", CHUNK, CHUNK),              # chunk 1 in flight ...
        ("consume", 0, CHUNK), ("done", 0, pages),   # ... under consume(0)
        ("read", 2 * CHUNK, CHUNK),          # never two ahead
        ("consume", CHUNK, CHUNK), ("done", CHUNK, pages),
        ("read", 3 * CHUNK, CHUNK),
        ("consume", 2 * CHUNK, CHUNK), ("done", 2 * CHUNK, pages),
        ("consume", 3 * CHUNK, CHUNK), ("done", 3 * CHUNK, pages),
    ]


def test_stream_overlaps_the_read_with_the_consumer(system):
    """The whole point: n chunks cost about max(read, consume) each, not the
    sum (the consumer here is slower than a 64 KiB host read)."""
    system.fs.install_synthetic("/s", 8 * CHUNK)
    _logged_stream(system, system.open_host("/s"), 0, 8 * CHUNK)
    read_ns = system.sim.now - 8 * 500_000
    assert 0 < read_ns < 500_000  # only the first read is not hidden


@pytest.mark.parametrize("begin, end, chunk, expected", [
    # a sub-range that starts and ends off chunk (and page) boundaries
    (3000, 13000, 4096, [(3000, 4096), (7096, 4096), (11192, 1808)]),
    # a chunk larger than the range: one read of exactly the range
    (8192, 8192 + 5000, 1 << 20, [(8192, 5000)]),
    # empty and inverted ranges read nothing
    (4096, 4096, 4096, []),
    (8192, 4096, 4096, []),
])
def test_stream_range_shapes(system, begin, end, chunk, expected):
    system.fs.install_synthetic("/s", 64 * 1024)
    before = system.sim.events_processed
    log = _logged_stream(system, system.open_host("/s"), begin, end, chunk)
    assert [entry[1:] for entry in log if entry[0] == "read"] == expected
    assert [entry[1:] for entry in log if entry[0] == "consume"] == expected
    if not expected:
        # Nothing but the streaming fiber's own start and finish.
        assert system.sim.events_processed - before == 2


def test_stream_exact_hands_over_read_range_bytes(system):
    payload = bytes((i * 31 + 7) % 251 for i in range(40_000))
    inode = system.fs.install("/e", payload)
    log = _logged_stream(system, system.open_host("/e"), 1234, 39_000,
                         chunk=10_000, exact=True)
    chunks = [(entry[1], entry[2]) for entry in log if entry[0] == "done"]
    assert [offset for offset, _ in chunks] == [1234, 11_234, 21_234, 31_234]
    for (offset, data), take in zip(chunks, (10_000, 10_000, 10_000, 7766)):
        assert data == system.fs.read_range(inode, offset, take)
    assert b"".join(data for _, data in chunks) == payload[1234:39_000]


def test_stream_timing_only_materializes_nothing(system, monkeypatch):
    system.fs.install("/e", b"\x05" * 40_000)

    def no_content(*_args):
        raise AssertionError("a timing-only stream materialized file content")

    monkeypatch.setattr(system.fs, "read_range", no_content)
    monkeypatch.setattr(system.fs, "page_content", no_content)
    log = _logged_stream(system, system.open_host("/e"), 0, 40_000, chunk=16_384)
    # The consumer gets the chunk's page count, never bytes.
    assert [entry[2] for entry in log if entry[0] == "done"] == [4, 4, 2]


def _uncorrectable_at(system, ordinal):
    injector = ScriptedInjector({ordinal: Fault("uncorrectable")})
    system.device.attach_fault_injector(injector)
    return injector


def test_stream_failed_readahead_is_raised_at_the_yield_that_waits_for_it(system):
    """The read of chunk 1 dies while consume(0) is busy; the failure waits,
    defused, and is rethrown inside the streaming fiber where it can be
    caught — after consume(0) finished, before consume(1) ever runs."""
    system.fs.install_synthetic("/s", 4 * CHUNK)
    handle = system.open_host("/s")
    # 16 KiB physical pages: read attempts 0-3 are chunk 0, 4-7 chunk 1.
    _uncorrectable_at(system, 5)
    log = []

    def consume(offset, _take, _pages):
        log.append(("consume", offset, system.sim.now))
        yield system.sim.timeout(5_000_000)  # far longer than a failing read
        log.append(("done", offset, system.sim.now))

    def program():
        try:
            yield from handle.stream(0, 4 * CHUNK, CHUNK, consume)
        except UncorrectableReadError as error:
            return error, system.sim.now
        return None

    error, caught_ns = system.run_fiber(program())
    assert [entry[:2] for entry in log] == [("consume", 0), ("done", 0)]
    assert caught_ns == log[-1][2]  # at the very next yield, not later
    assert error.channel is not None


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_stream_fault_seeds_are_caught_in_the_fiber(seed):
    """The host search over an 8 MiB exact log at a 1 % uncorrectable rate:
    every seed's failure surfaces inside the searching fiber (before
    ``stream`` defused every readahead, seeds 2-4 escaped the simulator as
    an unhandled failure no fiber could catch)."""
    system = System()
    system.fs.install("/log", bytes(8 << 20))
    system.device.attach_fault_injector(
        FaultInjector(FaultPlan(seed=seed, uncorrectable_rate=0.01)))

    def program():
        try:
            yield from string_search.conv_string_search(system, "/log", "NEEDLE")
        except UncorrectableReadError:
            return "caught"
        return "clean"

    assert system.run_fiber(program()) == "caught"
    system.sim.run()  # nothing left behind fails unhandled either


def test_stream_consumer_that_raises_leaves_no_unhandled_failure(system):
    """consume(0) raises while the read of chunk 1 is in flight and about to
    fail: the abandoned readahead is defused, so draining the simulator
    afterwards raises nothing."""
    system.fs.install_synthetic("/s", 4 * CHUNK)
    handle = system.open_host("/s")
    injector = _uncorrectable_at(system, 5)

    def consume(_offset, _take, _pages):
        raise KeyError("consumer bug")
        yield  # pragma: no cover - makes this a fiber

    def program():
        try:
            yield from handle.stream(0, 4 * CHUNK, CHUNK, consume)
        except KeyError:
            return system.sim.now

    raised_ns = system.run_fiber(program())
    system.sim.run()  # the doomed read of chunk 1 runs to its failure
    assert system.sim.now > raised_ns
    assert injector.faults_injected == 1


# ------------------------------- pins: the former loop and launch sites
# End time (ns) and events processed where the five hand-written readahead
# loops and the three Searcher launches used to be, taken before they were
# folded into ``stream`` / ``launch_searchers``: the same fibers must issue
# the same requests in the same order, so neither number may move (the
# counts were re-taken three times, when holds began to continue in line,
# when a fused plan began to settle in line, and when one-page reads stopped
# fusing; every end time stayed).
def _scaleup(run):
    system = System(num_ssds=2, fabric_bytes_per_sec=3.2e9)
    sharded_search.install_sharded_weblog(system, 32 << 20, "KEY")
    run(system, "KEY")
    return system.sim


def _scaleout(strategy):
    cluster = ScaleOutCluster(num_nodes=2, ssds_per_node=2, node_cores=4)
    sharded_search.install_cluster_weblog(cluster, 64 << 20, "KEY")
    sharded_search.run_strategy(cluster, strategy, "KEY")
    return cluster.sim


def _tpch_q14(mode):
    system = System()
    db = load_tpch(system.fs, 0.0005)
    run_query(create_engine(system, db, mode), 14)  # lineitem scan ⋈ part
    return system.sim


def _exact_log(run):
    system = System()
    string_search.install_weblog(system, "/log", 1 << 20, "NEEDLE")
    run(system, "/log", "NEEDLE")
    return system.sim


def _serve_job():
    system = System()
    install_serve_datasets(system)
    manager = JobManager(system, [Tenant("a")])
    manager.submit(JobSpec(tenant="a", kind="string_search"))
    system.run_fiber(manager.drain())
    return system.sim


@pytest.mark.parametrize("case, end_ns, events", [
    pytest.param(lambda: _scaleup(sharded_search.run_conv_sharded),
                 25643356, 4617, id="scaleup-conv"),
    pytest.param(lambda: _scaleup(sharded_search.run_biscuit_sharded),
                 9865758, 15293, id="scaleup-biscuit"),
    pytest.param(lambda: _scaleout("pull"), 29224278, 9513, id="scaleout-pull"),
    pytest.param(lambda: _scaleout("node-compute"), 13591251, 10301,
                 id="scaleout-node-compute"),
    pytest.param(lambda: _scaleout("in-ssd-ndp"), 10011088, 33809,
                 id="scaleout-in-ssd-ndp"),
    pytest.param(lambda: _tpch_q14(ExecutionMode.CONV), 133455934, 21,
                 id="tpch-q14-conv"),
    pytest.param(lambda: _tpch_q14(ExecutionMode.BISCUIT), 8912981, 1185,
                 id="tpch-q14-biscuit"),
    pytest.param(lambda: _exact_log(string_search.run_conv_search),
                 2185362, 138, id="exact-log-conv"),
    pytest.param(lambda: _exact_log(string_search.run_biscuit_search),
                 7025932, 618, id="exact-log-biscuit"),
    pytest.param(_serve_job, 4484438, 196, id="serve-string-search"),
])
def test_former_loop_and_launch_sites_keep_end_time_and_event_count(
        case, end_ns, events):
    sim = case()
    assert (sim.now, sim.events_processed) == (end_ns, events)
