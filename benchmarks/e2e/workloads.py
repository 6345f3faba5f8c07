"""The seven workloads.

Each workload drives the layers only through their public functions and
reads only public counters.  A workload has three untimed-by-itself parts
the runner times and traces:

* ``build()`` / ``load(platform)`` — the set-up (``setup_s``);
* ``rep(platform)`` — the measured section, one repetition; it returns a
  dict of raw outputs and does no checking, printing or file I/O;
* ``check(platform, out, checks)`` — compares the outputs of one
  repetition with independently computed expectations.

Every generated input (data, offsets, arrival schedule) derives from the
``seed`` argument; the program under test receives only those inputs.
"""

from __future__ import annotations

import math
import random
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.apps import pointer_chase
from repro.apps.string_search import (
    install_weblog,
    install_weblog_analytic,
    run_biscuit_search,
    run_conv_search,
)
from repro.cluster import ClusterExecutor, ShardedFleet, ShardedKVStore
from repro.cluster.serve import ClusterServeDriver
from repro.db.executor import EngineConfig, ExecutionMode
from repro.db.planner import create_engine
from repro.db.reference import REFERENCE_QUERIES, reference_result
from repro.db.tpch.datagen import generate_tables, load_tpch
from repro.db.tpch.queries import ALL_QUERIES, run_query
from repro.db.tpch.schema import TPCH_SCHEMAS
from repro.host.platform import System
from repro.instrument import causal
from repro.instrument.events import EventBus
from repro.instrument.metrics import Histogram
from repro.resilience import HedgePolicy
from repro.serve.jobs import JobSpec, install_serve_datasets
from repro.serve.loadgen import LoadGenerator
from repro.serve.manager import JobManager, Tenant
from repro.serve.mixes import MIXES
from repro.sim.engine import Simulator, all_of
from repro.sim.units import KIB, MIB
from repro.ssd.config import SSDConfig

from benchmarks.e2e.tracing import SpanRecorder

__all__ = ["Checks", "Failed", "WORKLOADS", "Workload", "rows_close"]

Out = Dict[str, Any]


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, error: BaseException):
        self.error = error

    def __repr__(self) -> str:
        return "Failed(%r)" % (self.error,)


class Checks:
    """Operations attempted and the ones that failed their check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, detail) if detail else name)


def rows_close(a: Sequence[tuple], b: Sequence[tuple]) -> bool:
    """Order-insensitive row equality; floats compare to 1e-9 relative."""
    if len(a) != len(b):
        return False
    try:  # copied-through values compare equal outright, far cheaper than repr
        if sorted(a) == sorted(b):
            return True
    except TypeError:  # a None among the values: fall through to repr order
        pass
    for ra, rb in zip(sorted(a, key=repr), sorted(b, key=repr)):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-6):
                    return False
            elif va != vb:
                return False
    return True


def _quantile(samples: Sequence[float], q: float) -> float:
    hist = Histogram("pooled")
    hist.samples.extend(samples)
    return hist.quantile(q)


def _rel_err(measured: float, paper: float) -> float:
    return abs(measured - paper) / paper


#: ReadStats fields reported as ``ssd.<field>``.
_STATS_FIELDS = ("read_commands", "write_commands", "logical_pages_read",
                 "logical_pages_written", "matcher_commands",
                 "coalesced_stripes", "fused_commands", "read_retries")
_DEVICE_COUNTERS = tuple("ssd." + field for field in _STATS_FIELDS) + (
    "ssd.nand_bytes_read", "ssd.nand_bytes_written", "ssd.gc_runs",
    "ssd.relocated_pages", "ssd.erases", "ssd.fused_batches",
    "ssd.fused_pages", "ssd.materializations",
    # raw inputs of the two ratios per_repetition() derives
    "ftl.host_pages_written", "fastpath.cache_hits", "fastpath.cache_misses")


class Workload:
    """Base: naming, span-wrapped calls, and the hooks the runner uses."""

    name = ""
    #: True when every repetition builds its own platform (the set-up is
    #: then sampled once per repetition and stays outside ``wall_s``).
    fresh_setup_per_rep = False

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        self.seed = seed
        self.smoke = smoke
        self.spans = spans
        #: perf_counter() at the end of each operation of the repetition
        #: under way; the runner empties it and cuts the repetition there.
        self.op_ends: List[float] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """One operation: a span around it, an exception becomes Failed."""
        with self.spans.span(name):
            try:
                return fn(*args)
            except Exception as error:  # a failed op is counted, not fatal
                return Failed(error)
            finally:
                self.op_ends.append(time.perf_counter())

    # ------------------------------------------------------------- hooks
    def build(self) -> Any:
        raise NotImplementedError

    def load(self, platform: Any) -> None:
        raise NotImplementedError

    def systems(self, platform: Any) -> List[System]:
        """Every System whose device counters this workload moves."""
        return [platform.system]

    def sim(self, platform: Any) -> Simulator:
        return self.systems(platform)[0].sim

    def counters(self, platform: Any) -> Dict[str, int]:
        """Cumulative public counters of the simulator and every device;
        the runner reports their change over one repetition."""
        sim = self.sim(platform)
        totals = dict.fromkeys(_DEVICE_COUNTERS, 0)
        totals["sim.events"] = sim.events_processed
        totals["sim.now_ns"] = sim.now
        for system in self.systems(platform):
            for device in system.devices:
                stats = device.controller.stats
                for field in _STATS_FIELDS:
                    totals["ssd." + field] += getattr(stats, field)
                totals["ssd.nand_bytes_read"] += device.nand.bytes_read
                totals["ssd.nand_bytes_written"] += device.nand.bytes_written
                totals["ssd.gc_runs"] += device.ftl.gc_runs
                totals["ssd.relocated_pages"] += device.ftl.relocated_pages
                totals["ftl.host_pages_written"] += device.ftl.host_pages_written
                for channel in device.nand.channels:
                    totals["ssd.erases"] += channel.erases
                    fused = channel.fastpath.counters()
                    totals["ssd.fused_batches"] += fused["fused_batches"]
                    totals["ssd.fused_pages"] += fused["fused_pages"]
                    totals["ssd.materializations"] += fused["materializations"]
                    totals["fastpath.cache_hits"] += fused["timing_cache_hits"]
                    totals["fastpath.cache_misses"] += fused["timing_cache_misses"]
        return totals

    @staticmethod
    def per_repetition(before: Dict[str, int],
                       after: Dict[str, int]) -> Dict[str, float]:
        """What one repetition moved :meth:`counters` by, with the raw
        inputs folded into the two ratios the contract names."""
        moved: Dict[str, float] = {key: after[key] - before[key]
                                   for key in after}
        hits = moved.pop("fastpath.cache_hits")
        misses = moved.pop("fastpath.cache_misses")
        host_pages = moved.pop("ftl.host_pages_written")
        moved["ssd.timing_cache_hit_frac"] = hits / max(1, hits + misses)
        moved["ssd.write_amplification"] = (
            (host_pages + moved["ssd.relocated_pages"]) / host_pages
            if host_pages else 0.0)
        return moved

    def rep(self, platform: Any) -> Out:
        raise NotImplementedError

    def check(self, platform: Any, out: Out, checks: Checks) -> None:
        raise NotImplementedError

    def layer_metrics(self, platform: Any, out: Out) -> Dict[str, float]:
        """Workload-specific per-layer numbers of one repetition."""
        return {}

    def paper_rel_err(self, out: Out) -> Optional[float]:
        """|measured - paper| / paper, or None without a paper figure."""
        return None


# ---------------------------------------------------------------- tpch_sql
class TpchSql(Workload):
    """Fig. 10 as users run it: all 22 queries, CONV and BISCUIT."""

    name = "tpch_sql"
    PAPER_SUITE_SPEEDUP = 3.6
    #: ``db.reference.ref_q18`` leaves out the two join-key columns that
    #: ``q18`` carries, so Q18 is compared on the reference's columns.  (The
    #: tier-1 test never sees the difference: Q18 is empty at its scale.)
    REFERENCE_COLUMNS = {18: ("l_orderkey", "sum_qty", "o_custkey",
                              "o_orderdate", "o_totalprice", "c_name")}

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        super().__init__(seed, smoke, spans)
        self.scale_factor = 0.001 if smoke else 0.0015
        self._reference: Optional[Dict[int, List[tuple]]] = None

    def build(self) -> SimpleNamespace:
        return SimpleNamespace(system=System())

    def load(self, p: SimpleNamespace) -> None:
        p.db = load_tpch(p.system.fs, self.scale_factor, seed=self.seed)

    def rep(self, p: SimpleNamespace) -> Out:
        # Fresh engines every repetition: Engine._decoded starts empty,
        # which is what every real run pays (the cold-engine rule).
        engines = (
            ("conv", create_engine(p.system, p.db, ExecutionMode.CONV)),
            ("biscuit", create_engine(p.system, p.db, ExecutionMode.BISCUIT)),
        )
        results: Dict[Tuple[int, str], Any] = {}
        layer = {"db.queries": 0, "db.host_pages_read": 0, "db.ndp_scans": 0,
                 "db.ndp_result_bytes": 0, "db.result_rows": 0}
        # Integer ns off the sim clock: run_query's float seconds lose
        # bits as the clock grows, and these sums must repeat exactly.
        sim_ns = {"conv": 0, "biscuit": 0}
        sim = p.system.sim
        for number in sorted(ALL_QUERIES):
            for label, engine in engines:
                start_ns = sim.now
                got = self.call("tpch.q%d.%s" % (number, label),
                                run_query, engine, number)
                results[number, label] = got
                if isinstance(got, Failed):
                    continue
                rel, _elapsed_s = got
                sim_ns[label] += sim.now - start_ns
                layer["db.queries"] += 1
                layer["db.host_pages_read"] += engine.host_pages_read
                layer["db.ndp_scans"] += engine.ndp_scans
                layer["db.ndp_result_bytes"] += engine.ndp_result_bytes
                layer["db.result_rows"] += len(rel.rows)
        hits = sum(engine.pool.hits for _, engine in engines)
        misses = sum(engine.pool.misses for _, engine in engines)
        layer["db.pool_hit_frac"] = hits / max(1, hits + misses)
        return {"results": results, "layer": layer, "sim_ns": sim_ns}

    def reference(self) -> Dict[int, List[tuple]]:
        """Independent answers for the queries that have a reference."""
        if self._reference is None:
            data = generate_tables(self.scale_factor, self.seed)
            self._reference = {number: reference_result(number, data)
                               for number in sorted(REFERENCE_QUERIES)}
        return self._reference

    def check(self, p: SimpleNamespace, out: Out, checks: Checks) -> None:
        reference = self.reference()
        for number in sorted(ALL_QUERIES):
            conv = out["results"][number, "conv"]
            biscuit = out["results"][number, "biscuit"]
            name = "tpch.q%d" % number
            if isinstance(conv, Failed):
                checks.op(name + ".conv", False, repr(conv))
            elif number in reference:
                rows = conv[0].rows
                if number in self.REFERENCE_COLUMNS:
                    keep = [conv[0].columns.index(column)
                            for column in self.REFERENCE_COLUMNS[number]]
                    rows = [tuple(row[i] for i in keep) for row in rows]
                checks.op(name + ".conv", rows_close(rows, reference[number]),
                          "differs from db.reference")
            else:
                checks.op(name + ".conv", True)
            if isinstance(biscuit, Failed) or isinstance(conv, Failed):
                checks.op(name + ".biscuit", False, repr(biscuit))
            else:
                checks.op(name + ".biscuit",
                          conv[0].columns == biscuit[0].columns
                          and rows_close(conv[0].rows, biscuit[0].rows),
                          "CONV and BISCUIT rows differ")

    def layer_metrics(self, p: SimpleNamespace, out: Out) -> Dict[str, float]:
        return out["layer"]

    def paper_rel_err(self, out: Out) -> Optional[float]:
        speedup = out["sim_ns"]["conv"] / out["sim_ns"]["biscuit"]
        return _rel_err(speedup, self.PAPER_SUITE_SPEEDUP)


# ------------------------------------------------------------ device reads
def _timed_reads(system: System, handle, offsets: Sequence[int],
                 length: int, queue_depth: int) -> Tuple[int, int]:
    """``queue_depth`` fibers issue the reads; (pages read, sim ns)."""
    pages = [0]

    def worker(first: int) -> Generator:
        for index in range(first, len(offsets), queue_depth):
            # Not ``pages[0] += yield from ...``: that reads pages[0]
            # before the read suspends, losing the other fibers' counts.
            done = yield from handle.read_timing_only(offsets[index], length)
            pages[0] += done

    def program() -> Generator:
        yield all_of(system.sim, [
            system.sim.process(worker(w), name="e2e-read%d" % w)
            for w in range(min(queue_depth, len(offsets)))])

    start = system.sim.now
    system.run_fiber(program(), name="e2e-reads")
    return pages[0], system.sim.now - start


class DevScan(Workload):
    """Large sequential reads (Fig. 7 sweep) and the string-search scans."""

    name = "dev_scan"
    SIZES = (256 * KIB, 1 * MIB, 4 * MIB)
    MODES = ("host", "internal", "matcher")
    QUEUE_DEPTH = 32
    FILE_BYTES = 512 * MIB
    KEYWORD = "ERRORKEY"
    PAPER_INTERNAL_GBPS = 4.4
    PAPER_HOST_GBPS = 3.2

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        super().__init__(seed, smoke, spans)
        self.sweep_bytes = (8 if smoke else 48) * MIB
        self.analytic_log_bytes = (8 if smoke else 64) * MIB
        self.exact_log_bytes = (256 * KIB) if smoke else 2 * MIB
        rng = random.Random(seed)
        page = 4 * KIB
        # Where in the file each sweep starts: seed-chosen, page-aligned.
        self.base = rng.randrange(
            (self.FILE_BYTES - self.sweep_bytes - max(self.SIZES)) // page
        ) * page

    def build(self) -> SimpleNamespace:
        return SimpleNamespace(system=System())

    def load(self, p: SimpleNamespace) -> None:
        p.system.fs.install_synthetic("/e2e/bw.dat", self.FILE_BYTES)
        install_weblog_analytic(p.system, "/e2e/web-analytic.log",
                                self.analytic_log_bytes, self.KEYWORD, 0.02)
        _, p.planted_hits = install_weblog(
            p.system, "/e2e/web-exact.log", self.exact_log_bytes, self.KEYWORD,
            hit_rate=0.01, seed=self.seed)

    def _arm(self, system: System, size: int, mode: str) -> Tuple[int, int]:
        handle = (system.open_host("/e2e/bw.dat") if mode == "host"
                  else system.open_internal("/e2e/bw.dat",
                                             use_matcher=(mode == "matcher")))
        offsets = range(self.base, self.base + self.sweep_bytes, size)
        return _timed_reads(system, handle, offsets, size, self.QUEUE_DEPTH)

    def rep(self, p: SimpleNamespace) -> Out:
        system = p.system
        arms = {}
        for size in self.SIZES:
            for mode in self.MODES:
                arms[size, mode] = self.call(
                    "scan.%dk.%s" % (size // KIB, mode),
                    self._arm, system, size, mode)
        search = {}
        for log in ("analytic", "exact"):
            path = "/e2e/web-%s.log" % log
            search[log, "conv"] = self.call(
                "search.%s.conv" % log, run_conv_search, system, path,
                self.KEYWORD)
            search[log, "biscuit"] = self.call(
                "search.%s.biscuit" % log, run_biscuit_search, system, path,
                self.KEYWORD)
        return {"arms": arms, "search": search}

    def _gbps(self, out: Out, size: int, mode: str) -> float:
        _pages, sim_ns = out["arms"][size, mode]
        return self.sweep_bytes / (sim_ns / 1e9) / 1e9

    def check(self, p: SimpleNamespace, out: Out, checks: Checks) -> None:
        system = p.system
        cap = system.config.pcie_bytes_per_sec / 1e9
        for (size, mode), got in out["arms"].items():
            name = "scan.%dk.%s" % (size // KIB, mode)
            if isinstance(got, Failed):
                checks.op(name, False, repr(got))
                continue
            ok = got[0] * system.fs.page_size == self.sweep_bytes
            detail = "read %d pages" % got[0]
            if ok and mode == "host":
                ok = self._gbps(out, size, mode) <= cap * (1 + 1e-9)
                detail = "host bandwidth above the PCIe cap"
            checks.op(name, ok, detail)
        search = out["search"]
        for key, got in search.items():
            if isinstance(got, Failed):
                checks.op("search.%s.%s" % key, False, repr(got))
        if any(isinstance(got, Failed) for got in search.values()):
            return
        # Exact log: both arms count real bytes.  Each sees the keyword only
        # inside one read unit (the host scan's 1 MiB chunk, the matcher's
        # page), so each is checked against a count taken at its own
        # granularity from the file's bytes; the arms differ exactly by the
        # planted keywords that straddle a page boundary.
        inode = system.fs.lookup("/e2e/web-exact.log")
        data = system.fs.read_range(inode, 0, inode.size)
        needle = self.KEYWORD.encode()

        def count_within(unit: int) -> int:
            return sum(data[at:at + unit].count(needle)
                       for at in range(0, len(data), unit))

        checks.op("search.exact.planted", data.count(needle) == p.planted_hits)
        checks.op("search.exact.conv",
                  search["exact", "conv"][0] == count_within(1 * MIB))
        checks.op("search.exact.biscuit",
                  search["exact", "biscuit"][0]
                  == count_within(system.fs.page_size))
        # Analytic log: only the matcher arm counts (the host arm reads
        # timing-only), so its count is checked against the profile.
        pages = self.analytic_log_bytes // system.fs.page_size
        expected = 0.02 * pages
        sigma = math.sqrt(pages * 0.02 * 0.98)
        checks.op("search.analytic.biscuit",
                  abs(search["analytic", "biscuit"][0] - expected) <= 6 * sigma,
                  "match count off the analytic profile")
        checks.op("search.analytic.conv",
                  search["analytic", "conv"][1]
                  > search["analytic", "biscuit"][1] > 0,
                  "host scan not slower than the in-device scan")

    def paper_rel_err(self, out: Out) -> Optional[float]:
        if any(isinstance(got, Failed) for got in out["arms"].values()):
            return None
        internal = max(self._gbps(out, size, "internal") for size in self.SIZES)
        host = max(self._gbps(out, size, "host") for size in self.SIZES)
        return (_rel_err(internal, self.PAPER_INTERNAL_GBPS)
                + _rel_err(host, self.PAPER_HOST_GBPS)) / 2


class DevPoint(Workload):
    """Random 4 KiB reads and pointer chasing: one-page commands."""

    name = "dev_point"
    FILE_BYTES = 512 * MIB
    PAGE = 4 * KIB
    GRAPH_NODES = 42_000_000
    WALKS = 2
    PAPER_HOST_US = 90.0
    PAPER_INTERNAL_US = 75.9

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        super().__init__(seed, smoke, spans)
        self.reads = 300 if smoke else 4000
        self.hops = 60 if smoke else 600
        rng = random.Random(seed)
        pages = self.FILE_BYTES // self.PAGE
        self.qd1_offsets = [rng.randrange(pages) * self.PAGE
                            for _ in range(self.reads)]
        self.qd16_offsets = [rng.randrange(pages) * self.PAGE
                             for _ in range(2 * self.reads)]
        self.graph_seed = rng.randrange(1 << 30)

    def build(self) -> SimpleNamespace:
        return SimpleNamespace(system=System())

    def load(self, p: SimpleNamespace) -> None:
        p.system.fs.install_synthetic("/e2e/point.dat", self.FILE_BYTES)
        p.graph = pointer_chase.build_analytic_graph(
            p.system, "/e2e/graph.bin", self.GRAPH_NODES, seed=self.graph_seed)

    def rep(self, p: SimpleNamespace) -> Out:
        system = p.system
        host = system.open_host("/e2e/point.dat")
        internal = system.open_internal("/e2e/point.dat")
        return {
            "host_qd1": self.call("point.host.qd1", _timed_reads, system,
                                  host, self.qd1_offsets, self.PAGE, 1),
            "internal_qd1": self.call("point.internal.qd1", _timed_reads,
                                      system, internal, self.qd1_offsets,
                                      self.PAGE, 1),
            "host_qd16": self.call("point.host.qd16", _timed_reads, system,
                                   host, self.qd16_offsets, self.PAGE, 16),
            "chase_conv": self.call("chase.conv", pointer_chase.run_conv,
                                    system, p.graph, self.WALKS,
                                    self.hops),
            "chase_biscuit": self.call("chase.biscuit",
                                       pointer_chase.run_biscuit, system,
                                       p.graph, self.WALKS, self.hops),
        }

    def check(self, p: SimpleNamespace, out: Out, checks: Checks) -> None:
        for key, offsets in (("host_qd1", self.qd1_offsets),
                             ("internal_qd1", self.qd1_offsets),
                             ("host_qd16", self.qd16_offsets)):
            got = out[key]
            checks.op("point." + key,
                      not isinstance(got, Failed) and got[0] == len(offsets),
                      repr(got))
        conv, biscuit = out["chase_conv"], out["chase_biscuit"]
        ok = not isinstance(conv, Failed) and not isinstance(biscuit, Failed)
        checks.op("chase.conv", ok and len(conv[0]) == self.WALKS, repr(conv))
        checks.op("chase.biscuit", ok and conv[0] == biscuit[0],
                  "end nodes differ across arms")

    def paper_rel_err(self, out: Out) -> Optional[float]:
        if (isinstance(out["host_qd1"], Failed)
                or isinstance(out["internal_qd1"], Failed)):
            return None
        host_us = out["host_qd1"][1] / 1e3 / self.reads
        internal_us = out["internal_qd1"][1] / 1e3 / self.reads
        return (_rel_err(host_us, self.PAPER_HOST_US)
                + _rel_err(internal_us, self.PAPER_INTERNAL_US)) / 2


class DevWrite(Workload):
    """Random single-page overwrites on a small, half-full device."""

    name = "dev_write"
    fresh_setup_per_rep = True
    FILE_PAGES = 16_384
    FILL_CHUNK_PAGES = 64
    SAMPLED_PAGES = 256
    BATCHES = 5

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        super().__init__(seed, smoke, spans)
        rng = random.Random(seed)
        count = 2_000 if smoke else 25_000
        self.overwrites = [(rng.randrange(self.FILE_PAGES), rng.randrange(1, 256))
                           for _ in range(count)]
        self.sampled = sorted(rng.sample(range(self.FILE_PAGES),
                                         self.SAMPLED_PAGES))

    def build(self) -> SimpleNamespace:
        return SimpleNamespace(system=System(ssd_config=SSDConfig(
            channels=4, dies_per_channel=2, blocks_per_die=16,
            pages_per_block=64)))

    def load(self, p: SimpleNamespace) -> None:
        system = p.system
        page = system.fs.page_size
        system.fs.create_empty("/e2e/write.dat")
        handle = system.open_internal("/e2e/write.dat")
        chunk = bytes(page * self.FILL_CHUNK_PAGES)
        p.payloads = [bytes([value]) * page for value in range(256)]

        def fill() -> Generator:
            for first in range(0, self.FILE_PAGES, self.FILL_CHUNK_PAGES):
                yield from handle.write(first * page, chunk)
            yield from handle.flush()

        system.run_fiber(fill(), name="e2e-fill")

    def _overwrite(self, p: SimpleNamespace) -> int:
        # One writer: with >= 2 writer fibers FTL._maybe_gc is re-entered
        # across its yields and runs out of blocks (open bug, see README).
        system = p.system
        page = system.fs.page_size
        handle = system.open_internal("/e2e/write.dat")
        payloads = p.payloads

        def program(batch, last: bool) -> Generator:
            for file_page, value in batch:
                yield from handle.write(file_page * page, payloads[value])
            if last:
                yield from handle.flush()

        # One writer still: the batches run one after the other, each its
        # own operation so that the repetition is timed in slices.
        count = len(self.overwrites)
        size = -(-count // self.BATCHES)
        for first in range(0, count, size):
            got = self.call(
                "write.batch%d" % (first // size), system.run_fiber,
                program(self.overwrites[first:first + size],
                        first + size >= count), "e2e-overwrite")
            if isinstance(got, Failed):
                raise got.error
        return count

    def rep(self, p: SimpleNamespace) -> Out:
        return {"written": self.call("write.overwrite", self._overwrite, p)}

    def check(self, p: SimpleNamespace, out: Out, checks: Checks) -> None:
        system = p.system
        checks.op("write.overwrite", out["written"] == len(self.overwrites),
                  repr(out["written"]))
        last = {}
        for file_page, value in self.overwrites:
            last[file_page] = value
        page = system.fs.page_size
        inode = system.fs.lookup("/e2e/write.dat")
        for file_page in self.sampled:
            expected = bytes([last.get(file_page, 0)]) * page
            checks.op("write.readback.%d" % file_page,
                      system.fs.read_range(inode, file_page * page, page)
                      == expected, "page content is not the last write")
        ftl = system.device.ftl
        checks.op("write.mapped_pages", ftl.mapped_pages == self.FILE_PAGES,
                  "%d mapped" % ftl.mapped_pages)
        checks.op("write.waf", ftl.write_amplification >= 1.0)


# ------------------------------------------------------------------ serving
class ServeMix(Workload):
    """The ``smoke`` tenant mix through JobManager + LoadGenerator."""

    name = "serve_mix"
    fresh_setup_per_rep = True
    traced = False
    OUTCOMES = ("completed", "rejected", "timeouts", "failed", "shed")
    SLICES = 6

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        super().__init__(seed, smoke, spans)
        self.horizon_s = 0.1 if smoke else 1.5

    def build(self) -> SimpleNamespace:
        if self.traced:
            sim = Simulator()
            bus = EventBus(sim)  # attached before the system wires up
            return SimpleNamespace(system=System(sim=sim), bus=bus)
        return SimpleNamespace(system=System(), bus=None)

    def load(self, p: SimpleNamespace) -> None:
        install_serve_datasets(p.system)

    def _serve(self, p: SimpleNamespace) -> Out:
        """What ``system.run_fiber(loadgen.run())`` does, with the event
        loop stopped at SLICES - 1 simulated times on the way so that the
        repetition is timed in slices; the simulation is the same."""
        system = p.system
        sim = system.sim
        _devices, _horizon_s, profiles = MIXES["smoke"]()
        manager = JobManager(system, [p.tenant() for p in profiles],
                             scheduler="fifo", placement="round_robin")
        loadgen = LoadGenerator(manager, profiles, seed=self.seed,
                                horizon_s=self.horizon_s)
        fiber = sim.process(loadgen.run(), name="loadgen")
        slice_ns = int(self.horizon_s * 1e9) // self.SLICES
        for index in range(1, self.SLICES):
            self._part("serve.slice%d" % index, sim.run, sim.now + slice_ns)
        self._part("serve.drain", sim.run, fiber)
        manager.finalize(sim.now_s)
        out: Out = {"offered": loadgen.jobs_offered,
                    "tenants": [p.name for p in profiles]}
        if p.bus is not None:
            out["report"] = self._part("serve.attribute", causal.attribute,
                                       p.bus.events)
        return out

    def _part(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """One timed slice of the single ``serve.run`` operation."""
        got = self.call(name, fn, *args)
        if isinstance(got, Failed):
            raise got.error
        return got

    def rep(self, p: SimpleNamespace) -> Out:
        out = self.call("serve.run", self._serve, p)
        return out if isinstance(out, dict) else {"failed": out}

    @staticmethod
    def outcomes(system: System, tenants: Sequence[str]) -> Dict[str, Dict[str, int]]:
        registry = system.metrics
        return {
            tenant: {
                name: registry.counter(
                    "serve.tenant.%s.%s" % (tenant, name)).value
                for name in ("submitted",) + ServeMix.OUTCOMES}
            for tenant in tenants}

    def check(self, p: SimpleNamespace, out: Out, checks: Checks) -> None:
        if "failed" in out:
            checks.op("serve.run", False, repr(out["failed"]))
            return
        checks.op("serve.run", out["offered"] > 0, "no job offered")
        for tenant, counts in self.outcomes(p.system, out["tenants"]).items():
            checks.op("serve.accounting.%s" % tenant,
                      counts["submitted"]
                      == sum(counts[name] for name in self.OUTCOMES),
                      repr(counts))
            checks.op("serve.no_failed.%s" % tenant, counts["failed"] == 0)

    def layer_metrics(self, p: SimpleNamespace, out: Out) -> Dict[str, float]:
        if "failed" in out:
            return {}
        system = p.system
        registry = system.metrics
        counts = self.outcomes(system, out["tenants"])
        latencies: List[float] = []
        goodput = 0.0
        for tenant in out["tenants"]:
            prefix = "serve.tenant.%s" % tenant
            latencies.extend(registry.histogram(prefix + ".total_us").samples)
            goodput += registry.gauge(prefix + ".goodput_jps").value or 0.0
        layer = {
            "serve.jobs_offered": out["offered"],
            "serve.jobs_completed": sum(c["completed"] for c in counts.values()),
            "serve.jobs_rejected": sum(c["rejected"] for c in counts.values()),
            "serve.jobs_timed_out": sum(c["timeouts"] for c in counts.values()),
            "serve.sim_p50_us": _quantile(latencies, 0.50),
            "serve.sim_p99_us": _quantile(latencies, 0.99),
            "serve.sim_goodput_jps": goodput,
        }
        report = out.get("report")
        if report is not None:
            total = sum(row["end_to_end"] for row in report.queries)
            layer.update({
                "instrument.bus_events": len(p.bus.events),
                "instrument.attributed_queries": len(report.queries),
                "instrument.other_frac":
                    sum(row["other"] for row in report.queries) / max(1, total),
            })
        return layer


class ServeTraced(ServeMix):
    """``serve_mix`` byte for byte, with an EventBus and attribution."""

    name = "serve_traced"
    traced = True

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        super().__init__(seed, smoke, spans)
        self._twin: Optional[Out] = None

    def twin(self) -> Out:
        """The same inputs run once with no bus attached, per event.

        An attached bus de-gates the fused fast path, so the twin turns it
        off too: the pair then differs in tracing alone.  (Against the
        fast path the simulated end time is *not* always equal — see the
        README's findings — which is why ``serve_mix`` is not the twin.)
        """
        if self._twin is None:
            p = SimpleNamespace(
                system=System(ssd_config=SSDConfig(sim_fast_path=False)),
                bus=None)
            self.load(p)
            out = self._serve(p)
            self._twin = {
                "sim_ns": p.system.sim.now,
                "events": p.system.sim.events_processed,
                "outcomes": self.outcomes(p.system, out["tenants"]),
            }
        return self._twin

    def check(self, p: SimpleNamespace, out: Out, checks: Checks) -> None:
        super().check(p, out, checks)
        if "failed" in out:
            return
        system = p.system
        twin = self.twin()
        checks.op("traced.same_outcomes",
                  self.outcomes(system, out["tenants"]) == twin["outcomes"],
                  "tracing changed job outcomes")
        checks.op("traced.same_sim_time", system.sim.now == twin["sim_ns"],
                  "tracing changed simulated time")
        checks.op("traced.same_events",
                  system.sim.events_processed == twin["events"],
                  "tracing changed the events simulated")
        components = causal.COMPONENTS
        checks.op("traced.conservation", all(
            sum(row[name] for name in components) == row["end_to_end"]
            for row in out["report"].queries))


# -------------------------------------------------------------------- fleet
class FleetSql(Workload):
    """Scatter-gather SQL, point lookups, a KV batch and a crash storm."""

    name = "fleet_sql"
    THRESHOLDS = (20, 30, 40, 45)
    STORM_SQL = ("SELECT l_returnflag, count(*) AS n FROM lineitem "
                 "GROUP BY l_returnflag")
    JOBS_PER_WAVE = 16
    JOB_KINDS = ("db_scan", "string_search", "pointer_chase")
    # lineitem column positions
    ORDERKEY, QUANTITY, RETURNFLAG = 0, 4, 8

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder):
        super().__init__(seed, smoke, spans)
        self.nodes = 2 if smoke else 4
        self.scale_factor = 0.001 if smoke else 0.01
        self._expected: Optional[Dict[str, Any]] = None

    def build(self) -> SimpleNamespace:
        # Sharding divides lineitem eight ways; lower the "too small to
        # offload" floor so per-shard scans take the NDP path they would
        # at scale (same setting as repro.bench.cluster).
        return SimpleNamespace(fleet=ShardedFleet(
            num_nodes=self.nodes, num_shards=2 * self.nodes, replication=2,
            ssds_per_node=1,
            engine_config=EngineConfig(ndp_min_table_pages=1,
                                       ndp_min_table_fraction=0.0,
                                       ndp_sample_pages=8)))

    def load(self, p: SimpleNamespace) -> None:
        fleet = p.fleet
        rng = random.Random(self.seed)
        rows = generate_tables(self.scale_factor, seed=self.seed)["lineitem"]
        fleet.load_sharded(TPCH_SCHEMAS["lineitem"], rows, key="l_orderkey",
                           kind="hash")
        items = [(b"key%06d" % i, b"v" * rng.randrange(16, 96))
                 for i in range(200 if self.smoke else 2000)]
        p.kv = ShardedKVStore.build(fleet, items, name="e2e-kv")
        p.rows = rows
        p.kv_items = items
        p.lookup_keys = rng.sample(sorted({r[self.ORDERKEY] for r in rows}), 6)
        p.kv_probe = [key for key, _ in items[::97]] + [b"missing-key"]

    def systems(self, p: SimpleNamespace) -> List[System]:
        return [node.system for node in p.fleet.cluster.nodes]

    def sim(self, p: SimpleNamespace) -> Simulator:
        return p.fleet.sim

    def statements(self) -> List[Tuple[str, str, int]]:
        """(kind, sql, threshold) for the eight scatter-gather statements."""
        found = []
        for threshold in self.THRESHOLDS:
            found.append(("filter", "SELECT l_orderkey, l_quantity FROM lineitem "
                          "WHERE l_quantity >= %d" % threshold, threshold))
            found.append(("agg", "SELECT l_returnflag, sum(l_quantity) AS s, "
                          "count(*) AS n FROM lineitem WHERE l_quantity >= %d "
                          "GROUP BY l_returnflag" % threshold, threshold))
        return found

    def _storm(self, fleet: ShardedFleet, executor: ClusterExecutor,
               driver: ClusterServeDriver, tenants: List[Tenant]) -> Any:
        second_victim = 2 % fleet.num_nodes

        def submit_wave(wave: int) -> None:
            for i in range(self.JOBS_PER_WAVE):
                driver.submit(
                    JobSpec(tenant=tenants[i % len(tenants)].name,
                            kind=self.JOB_KINDS[i % len(self.JOB_KINDS)]),
                    shard=(wave * self.JOBS_PER_WAVE + i) % fleet.num_shards)

        def storm() -> Generator:
            sim = fleet.sim
            submit_wave(0)
            yield sim.timeout(2_000_000)  # wave 0 is mid-flight
            fleet.crash_node(1)
            submit_wave(1)
            rel = yield from executor.sql_fiber(self.STORM_SQL)
            yield sim.timeout(2_000_000)
            fleet.recover_node(1)
            fleet.crash_node(second_victim)
            submit_wave(2)
            yield from driver.drain()
            fleet.recover_node(second_victim)
            return rel

        rel = fleet.run_fiber(storm(), name="e2e-storm")
        driver.finalize(fleet.sim.now / 1e9)
        return rel

    def rep(self, p: SimpleNamespace) -> Out:
        fleet = p.fleet
        net_before = (fleet.network_bytes(), fleet.rpcs_served())
        engines = [fleet.engine(i) for i in range(fleet.num_nodes)]
        pool_before = (sum(e.pool.hits for e in engines),
                       sum(e.pool.misses for e in engines))
        executor = ClusterExecutor(fleet, hedge=HedgePolicy(default_us=8_000.0))
        layer = {"db.queries": 0, "db.host_pages_read": 0, "db.ndp_scans": 0,
                 "db.ndp_result_bytes": 0, "db.result_rows": 0}

        def account(rel) -> None:
            layer["db.queries"] += 1
            layer["db.result_rows"] += len(rel.rows)
            for engine in engines:  # per-query statistics, reset by the next
                layer["db.host_pages_read"] += engine.host_pages_read
                layer["db.ndp_scans"] += engine.ndp_scans
                layer["db.ndp_result_bytes"] += engine.ndp_result_bytes

        sql = []
        query_ns = []  # off the integer sim clock, so it repeats exactly
        for index, (_kind, text, _threshold) in enumerate(self.statements()):
            start_ns = fleet.sim.now
            got = self.call("fleet.sql%d" % index, executor.run_sql, text)
            sql.append(got)
            if not isinstance(got, Failed):
                query_ns.append(fleet.sim.now - start_ns)
                account(got[0])
        leg_ns = list(executor.leg_latencies_ns)
        lookups = []
        for value in p.lookup_keys:
            fleet.begin_query()
            got = self.call(
                "fleet.lookup", fleet.run_fiber,
                executor.point_lookup("lineitem", value), "e2e-lookup")
            lookups.append(got)
            if not isinstance(got, Failed):
                account(got)
        # The KV batch goes through an executor with no hedge policy: a
        # hedge loser interrupted inside KVStore.get_biscuit never returns
        # its data channels, so a long-lived fleet drains that store's pool
        # of 16 and later repetitions stop repeating (open bug, see README).
        kv_executor = ClusterExecutor(fleet)
        kv = self.call("fleet.kv", fleet.run_fiber,
                       kv_executor.kv_lookup(p.kv, p.kv_probe), "e2e-kv")
        tenants = [Tenant("alpha", weight=2.0), Tenant("beta", weight=1.0)]
        driver = ClusterServeDriver(fleet, tenants, scheduler="wfq",
                                    placement="least_loaded")
        fleet.begin_query()
        storm = self.call("fleet.storm", self._storm, fleet, executor,
                          driver, tenants)
        if not isinstance(storm, Failed):
            account(storm)
        hits = sum(e.pool.hits for e in engines) - pool_before[0]
        misses = sum(e.pool.misses for e in engines) - pool_before[1]
        layer["db.pool_hit_frac"] = hits / max(1, hits + misses)
        leg_p99 = _quantile(leg_ns, 0.99) if leg_ns else 0.0
        hedge = executor.hedge.counters()
        for field in ("scatter_calls", "shard_rpcs", "merged_rows",
                      "point_lookups", "retries", "failovers"):
            layer["cluster." + field] = (getattr(executor, field)
                                         + getattr(kv_executor, field))
        layer.update({
            "cluster.tail_amplification":
                _quantile(query_ns, 0.99) / leg_p99 if leg_p99 else 0.0,
            "cluster.storm_goodput": driver.goodput(),
            "net.network_bytes": fleet.network_bytes() - net_before[0],
            "net.rpcs_served": fleet.rpcs_served() - net_before[1],
            "resilience.hedges_fired": hedge["hedges_fired"],
            "resilience.hedge_wins": hedge["hedge_wins"],
        })
        return {"sql": sql, "lookups": lookups, "kv": kv, "storm": storm,
                "down": sorted(fleet.down), "layer": layer}

    def expected(self, p: SimpleNamespace) -> Dict[str, Any]:
        """Plain-Python answers over the raw rows."""
        if self._expected is None:
            rows = p.rows
            key, qty, flag = self.ORDERKEY, self.QUANTITY, self.RETURNFLAG
            sql = []
            for kind, _text, threshold in self.statements():
                kept = [r for r in rows if r[qty] >= threshold]
                if kind == "filter":
                    sql.append([(r[key], r[qty]) for r in kept])
                else:
                    groups: Dict[str, List[float]] = {}
                    for r in kept:
                        entry = groups.setdefault(r[flag], [0.0, 0])
                        entry[0] += r[qty]
                        entry[1] += 1
                    sql.append([(f, total, count)
                                for f, (total, count) in groups.items()])
            storm: Dict[str, int] = {}
            for r in rows:
                storm[r[flag]] = storm.get(r[flag], 0) + 1
            self._expected = {
                "sql": sql,
                "lookups": [[tuple(r) for r in rows if r[key] == value]
                            for value in p.lookup_keys],
                "kv": dict(p.kv_items),
                "storm": list(storm.items()),
            }
        return self._expected

    def check(self, p: SimpleNamespace, out: Out, checks: Checks) -> None:
        expected = self.expected(p)
        for index, got in enumerate(out["sql"]):
            checks.op("fleet.sql%d" % index,
                      not isinstance(got, Failed)
                      and rows_close(got[0].rows, expected["sql"][index]),
                      repr(got) if isinstance(got, Failed)
                      else "differs from the plain-Python reference")
        for index, got in enumerate(out["lookups"]):
            checks.op("fleet.lookup%d" % index,
                      not isinstance(got, Failed)
                      and rows_close([tuple(r) for r in got.rows],
                                     expected["lookups"][index]),
                      "point lookup differs from the raw rows")
        kv = out["kv"]
        checks.op("fleet.kv",
                  not isinstance(kv, Failed)
                  and all(kv[key] == expected["kv"].get(key)
                          for key in p.kv_probe), repr(kv)[:200])
        storm = out["storm"]
        checks.op("fleet.storm",
                  not isinstance(storm, Failed)
                  and rows_close(storm.rows, expected["storm"]),
                  "mid-storm query differs from the raw rows")
        checks.op("fleet.recovered", out["down"] == [],
                  "nodes still down: %r" % (out["down"],))

    def layer_metrics(self, p: SimpleNamespace, out: Out) -> Dict[str, float]:
        return out["layer"]


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (TpchSql, DevScan, DevPoint, DevWrite, ServeMix,
                              ServeTraced, FleetSql)
}
