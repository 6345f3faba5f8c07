"""Typed NDP job kinds served by the JobManager.

A *job kind* bundles everything the serving layer needs to run one request
class on a device: the SSDlet module to (dynamically) load, the per-device
dataset it reads, and the host-side fiber that builds the Application, wires
its ports, collects the result and tears the application down.

Three kinds mirror the paper's workloads:

* ``string_search`` — a :class:`~repro.apps.string_search.Searcher` SSDlet
  streams a slice of a web log through the matcher IP (Table V).
* ``pointer_chase`` — a :class:`~repro.apps.pointer_chase.Chaser` SSDlet
  performs a dependent-read random walk (Table IV).
* ``db_scan`` — a :class:`~repro.db.ndp.ScanFilter` SSDlet runs a
  table-scan pushdown over a synthetic table (Section V-C, MiniDB).

Datasets are synthetic/analytic: no page content is materialized, so a
serving run costs simulation events, not memory, while every read is still
timed and placement-correct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from repro.apps.pointer_chase import (
    NODE_RECORD_BYTES,
    POINTER_CHASE_MODULE,
    GraphFile,
    launch_chaser,
)
from repro.apps.string_search import STRING_SEARCH_MODULE, launch_searchers
from repro.core.module import write_module_image
from repro.db.ndp import NDP_MODULE, ScanSpec, run_offloaded_scan
from repro.sim.engine import Event
from repro.sim.units import KIB, MIB

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobSpec",
    "JobState",
    "install_serve_datasets",
    "job_kind_names",
]

# --------------------------------------------------------------- dataset layout
WEBLOG_PATH = "/serve/weblog"
WEBLOG_BYTES = 8 * MIB
WEBLOG_KEYWORD = "ERROR"
WEBLOG_MATCH_PROBABILITY = 0.02

GRAPH_PATH = "/serve/graph"
GRAPH_NODES = 1 << 16  # 64 Ki nodes x 64 B records = 4 MiB
GRAPH_SEED = 7

TABLE_PATH = "/serve/table"
TABLE_PAGES = 1024  # 4 MiB at 4 KiB pages
TABLE_PAGE_BYTES = 4 * KIB
TABLE_ROWS_PER_PAGE = 8

#: Default DRAM reservation charged against ``SSDConfig.serve_dram_budget_bytes``
#: per admitted job (instance base footprint plus working buffers).
DEFAULT_JOB_DRAM_BYTES = 256 * KIB


class JobState:
    """Lifecycle of one request (plain string states; easy to log/assert)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    REJECTED = "rejected"
    TIMED_OUT = "timed_out"
    FAILED = "failed"


@dataclass
class JobSpec:
    """An immutable request description, as a tenant would submit it."""

    tenant: str
    kind: str
    #: Kind-specific parameters (offsets, hop counts, page ranges).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Relative service demand used by weighted-fair queueing (any unit,
    #: as long as one tenant mix uses it consistently).
    cost: float = 1.0
    #: Queue-residency limit; a job still queued past this is timed out.
    timeout_us: Optional[float] = None
    #: Latency objective; completions slower than this count as SLO misses.
    slo_us: Optional[float] = None
    dram_bytes: int = DEFAULT_JOB_DRAM_BYTES


class Job:
    """One submitted request tracked through the serving pipeline."""

    _ids = itertools.count(1)

    def __init__(self, spec: JobSpec, sim, submit_ns: int):
        self.spec = spec
        self.job_id = next(Job._ids)
        self.state = JobState.PENDING
        self.submit_ns = submit_ns
        self.start_ns: Optional[int] = None
        self.finish_ns: Optional[int] = None
        self.device_index: Optional[int] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.reject_reason: Optional[str] = None
        #: Triggers (with the job as value) when the job leaves the system —
        #: done, failed, timed out, or rejected.  Closed-loop tenants block
        #: on this.
        self.done = Event(sim)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Job %d %s/%s %s>" % (
            self.job_id, self.spec.tenant, self.spec.kind, self.state)


# ------------------------------------------------------------------- job kinds
class JobKindBase:
    """One request class: module identity + dataset + host-side run fiber."""

    name = "base"
    module = None

    def install(self, fs) -> None:
        """Install this kind's per-device dataset (idempotent)."""
        raise NotImplementedError

    def default_params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def draw_params(self, rng, overrides: Dict[str, Any]) -> Dict[str, Any]:
        """Deterministic per-job parameters (``rng`` is the tenant's)."""
        raise NotImplementedError

    def params_of(self, job: Job) -> Dict[str, Any]:
        """The job's parameters over this kind's defaults (direct submits
        may carry a partial — or empty — params dict)."""
        params = self.default_params()
        params.update(job.spec.params)
        return params

    def run(self, server, mid: int, job: Job) -> Generator:
        """Fiber: execute the job on ``server``; returns the result value."""
        raise NotImplementedError


class StringSearchKind(JobKindBase):
    name = "string_search"
    module = STRING_SEARCH_MODULE

    def install(self, fs) -> None:
        if not fs.exists(WEBLOG_PATH):
            fs.install_synthetic(
                WEBLOG_PATH, WEBLOG_BYTES,
                analytic_profile={
                    WEBLOG_KEYWORD.encode(): WEBLOG_MATCH_PROBABILITY},
            )

    def default_params(self) -> Dict[str, Any]:
        return {"scan_bytes": 256 * KIB, "offset": 0}

    def draw_params(self, rng, overrides: Dict[str, Any]) -> Dict[str, Any]:
        params = self.default_params()
        params.update(overrides)
        scan_bytes = params["scan_bytes"]
        pages = max(1, (WEBLOG_BYTES - scan_bytes) // (4 * KIB))
        params["offset"] = rng.randrange(pages) * 4 * KIB
        return params

    def run(self, server, mid: int, job: Job) -> Generator:
        params = self.params_of(job)
        length = min(params["scan_bytes"], WEBLOG_BYTES - params["offset"])
        count = yield from launch_searchers(
            server.ssd, mid, "serve-search-%d" % job.job_id, WEBLOG_PATH,
            WEBLOG_KEYWORD, [(params["offset"], length)])
        return count


class PointerChaseKind(JobKindBase):
    name = "pointer_chase"
    module = POINTER_CHASE_MODULE

    def install(self, fs) -> None:
        if not fs.exists(GRAPH_PATH):
            fs.install_synthetic(GRAPH_PATH, GRAPH_NODES * NODE_RECORD_BYTES)

    def default_params(self) -> Dict[str, Any]:
        return {"hops": 16, "start": 0}

    def draw_params(self, rng, overrides: Dict[str, Any]) -> Dict[str, Any]:
        params = self.default_params()
        params.update(overrides)
        params["start"] = rng.randrange(GRAPH_NODES)
        return params

    def run(self, server, mid: int, job: Job) -> Generator:
        params = self.params_of(job)
        graph = GraphFile(GRAPH_PATH, GRAPH_NODES, GRAPH_SEED, exact=False)
        (final,) = yield from launch_chaser(
            server.ssd, mid, "serve-chase-%d" % job.job_id, graph,
            [params["start"]], params["hops"])
        return final


def _table_page_rows(page_no: int):
    """Synthetic decoded rows for one table page: (row_id, bucket)."""
    base = page_no * TABLE_ROWS_PER_PAGE
    return [(base + i, (base + i) % 97) for i in range(TABLE_ROWS_PER_PAGE)]


def _table_prefilter(rows):
    return [row for row in rows if row[1] < 13]


def _table_predicate(rows):
    return [row for row in rows if row[1] < 13 and row[0] % 2 == 0]


def _table_project(rows):
    return [(row[0],) for row in rows]


TABLE_SCAN = ScanSpec(
    path=TABLE_PATH, page_rows=_table_page_rows, prefilter=_table_prefilter,
    predicate=_table_predicate, project=_table_project,
    page_size=TABLE_PAGE_BYTES, num_pages=TABLE_PAGES, batch_rows=128)


class DbScanKind(JobKindBase):
    name = "db_scan"
    module = NDP_MODULE

    def install(self, fs) -> None:
        if not fs.exists(TABLE_PATH):
            fs.install_synthetic(TABLE_PATH, TABLE_PAGES * TABLE_PAGE_BYTES)

    def default_params(self) -> Dict[str, Any]:
        return {"num_pages": 64, "first_page": 0}

    def draw_params(self, rng, overrides: Dict[str, Any]) -> Dict[str, Any]:
        params = self.default_params()
        params.update(overrides)
        span = max(1, TABLE_PAGES - params["num_pages"])
        params["first_page"] = rng.randrange(span)
        return params

    def run(self, server, mid: int, job: Job) -> Generator:
        params = self.params_of(job)
        batch_sizes = []
        first_page = params["first_page"]
        yield from run_offloaded_scan(
            server.ssd, mid, "serve-scan-%d" % job.job_id, TABLE_SCAN,
            [(first_page, min(params["num_pages"], TABLE_PAGES - first_page))],
            lambda _index, batch, _nbytes: batch_sizes.append(len(batch)))
        return sum(batch_sizes)


#: The job-kind registry, keyed by kind name.  Iterate via
#: :func:`job_kind_names` so the order is deterministic.
JOB_KINDS: Dict[str, JobKindBase] = {
    kind.name: kind
    for kind in (StringSearchKind(), PointerChaseKind(), DbScanKind())
}


def job_kind_names():
    return sorted(JOB_KINDS)


def install_serve_datasets(system) -> None:
    """Install every kind's dataset + module image on every device."""
    for fs in system.filesystems:
        for name in job_kind_names():
            kind = JOB_KINDS[name]
            kind.install(fs)
            if not fs.exists(kind.module.image_path):
                write_module_image(fs, kind.module.image_path, kind.module)
