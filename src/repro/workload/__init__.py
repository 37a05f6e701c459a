"""Workload and scheduler simulation substrate.

The paper measures a *live* infrastructure: the energy in Table 2 reflects
whatever jobs happened to be running during the 24-hour snapshot.  Since we
cannot measure real hardware, this package simulates that load:

* :mod:`~repro.workload.jobs` — synthetic batch jobs (arrival process, size
  and runtime distributions) representative of the particle-physics /
  astronomy workloads IRIS supports.
* :mod:`~repro.workload.cluster` — the simulated cluster: a set of nodes
  with core counts and an allocation map.
* :mod:`~repro.workload.scheduler` — an event-driven FCFS + EASY-backfill
  scheduler that places jobs on nodes over the snapshot window.
* :mod:`~repro.workload.utilization` — per-node and cluster-level
  utilisation traces, the interface consumed by the power models.
* :mod:`~repro.workload.fleet` — the columnar :class:`FleetUtilization`
  engine: the whole fleet as one (nodes × intervals) matrix, built
  vectorizedly from scheduler placements.

The separation mirrors real deployments: the scheduler knows nothing about
power, and the power instruments observe only the utilisation the schedule
produces.
"""

from repro.workload.jobs import Job, JobGenerator, WorkloadProfile
from repro.workload.cluster import SimulatedCluster, SimulatedNode
from repro.workload.fleet import FleetUtilization
from repro.workload.scheduler import BackfillScheduler, SchedulerStatistics
from repro.workload.utilization import UtilizationTrace, cluster_mean_utilization

__all__ = [
    "FleetUtilization",
    "Job",
    "JobGenerator",
    "WorkloadProfile",
    "SimulatedCluster",
    "SimulatedNode",
    "BackfillScheduler",
    "SchedulerStatistics",
    "UtilizationTrace",
    "cluster_mean_utilization",
]
