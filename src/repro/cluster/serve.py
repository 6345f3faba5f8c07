"""Placement-aware tenant job scheduling across the sharded fleet.

:class:`ClusterServeDriver` runs one :class:`repro.serve.manager.JobManager`
per storage node (each scheduling onto its node's own devices) and routes
every submitted job at admission time:

* a job bound to a shard (``shard=`` or ``table=``/``key=``, resolved
  through the shard catalog) may only run on that shard's *alive* copy
  holders — placement-aware admission, not just placement-aware dispatch;
* among eligible nodes the router picks the least loaded (queued + running
  jobs, then busy device slots), breaking ties toward the lowest node index
  — :meth:`repro.net.cluster.LeastLoadedPlacement.pick` over the nodes;
* a crashed node is routed around immediately (catalog liveness), and jobs
  already running there fail through the node manager's normal device-error
  accounting — that is the goodput cost the crash-storm benchmark measures.

Within the routed node, the node's own manager places the job on a device.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.catalog import ShardUnavailableError
from repro.cluster.fleet import ShardedFleet
from repro.net.cluster import LeastLoadedPlacement
from repro.serve.admission import AdmissionDecision
from repro.serve.jobs import Job, JobSpec, JobState, install_serve_datasets
from repro.serve.manager import JobManager, Tenant

__all__ = ["ClusterServeDriver"]

#: Stateless, so one instance serves every driver.
_LEAST_LOADED = LeastLoadedPlacement()


class ClusterServeDriver:
    """One JobManager per node plus shard-aware admission routing."""

    def __init__(
        self,
        fleet: ShardedFleet,
        tenants: Sequence[Tenant],
        scheduler: str = "fifo",
        placement: str = "least_loaded",
    ):
        self.fleet = fleet
        self.managers: List[JobManager] = []
        for node in fleet.cluster.nodes:
            install_serve_datasets(node.system)
            self.managers.append(JobManager(
                node.system, list(tenants), scheduler=scheduler,
                placement=placement))
        self.jobs: List[Tuple[int, Job]] = []  # (node index, job)
        self.routed_per_node = [0] * fleet.num_nodes
        self.rejected_unroutable = 0

    # --------------------------------------------------------------- routing
    def node_load(self, index: int) -> Tuple[int, int]:
        """Orderable pressure key for one node: (jobs in system, busy slots)."""
        manager = self.managers[index]
        busy_slots = sum(server.slots.slots_in_use
                         for server in manager.servers)
        in_system = manager._active_jobs + len(manager.scheduler)
        return (in_system, busy_slots)

    def eligible_nodes(self, shard: Optional[int] = None,
                       table: Optional[str] = None,
                       key=None) -> List[int]:
        """The alive nodes allowed to run a job (shard owners, or anyone).

        Raises :class:`ShardUnavailableError` when the job is bound to a
        shard whose every copy holder is down.
        """
        catalog = self.fleet.catalog
        if shard is None and table is not None and key is not None:
            shard = catalog.shard_of(table, key)
        if shard is not None:
            return catalog.nodes_for(shard)  # alive-filtered, primary first
        return [index for index in range(self.fleet.num_nodes)
                if not catalog.is_down(index)]

    def route(self, shard: Optional[int] = None,
              table: Optional[str] = None, key=None) -> int:
        """Pick the least-loaded eligible node (lowest index on ties)."""
        nodes = self.eligible_nodes(shard=shard, table=table, key=key)
        if not nodes:
            raise ShardUnavailableError("no alive node can run this job")
        return _LEAST_LOADED.pick(
            [(index, self.node_load(index)) for index in nodes])

    # ------------------------------------------------------------ submission
    def submit(self, spec: JobSpec, shard: Optional[int] = None,
               table: Optional[str] = None,
               key=None) -> Tuple[AdmissionDecision, Optional[Job]]:
        """Route and submit one job; never blocks.

        A job whose shard has no alive copy holder is rejected at admission
        (counted in ``rejected_unroutable``) rather than queued onto a dead
        node.
        """
        try:
            index = self.route(shard=shard, table=table, key=key)
        except ShardUnavailableError:
            self.rejected_unroutable += 1
            return AdmissionDecision(False, "shard_unavailable"), None
        decision, job = self.managers[index].submit(spec)
        self.routed_per_node[index] += 1
        self.jobs.append((index, job))
        return decision, job

    # ----------------------------------------------------------------- drain
    def drain(self) -> Generator:
        """Fiber: wait for every node manager to go idle."""
        for manager in self.managers:
            yield from manager.drain()

    def run_to_drain(self):
        """Drive the shared simulator until the whole fleet is drained."""
        return self.fleet.run_fiber(self.drain(), name="cluster-serve-drain")

    # ------------------------------------------------------------- reporting
    def outcome_counts(self) -> Dict[str, int]:
        """Terminal job states across the fleet (done/failed/...)."""
        counts: Dict[str, int] = {}
        for _, job in self.jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def goodput(self) -> float:
        """Fraction of submitted jobs that completed successfully."""
        if not self.jobs:
            return 1.0
        done = sum(1 for _, job in self.jobs
                   if job.state == JobState.DONE)
        return done / len(self.jobs)

    def finalize(self, elapsed_s: float) -> None:
        for manager in self.managers:
            manager.finalize(elapsed_s)
