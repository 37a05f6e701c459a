"""Event-driven FCFS + EASY-backfill scheduler.

The scheduler places a stream of :class:`~repro.workload.jobs.Job` onto a
:class:`~repro.workload.cluster.SimulatedCluster` and records, for every
placement, which node ran it, when it started and finished, and how hard it
drove its cores.  The output is a :class:`~repro.workload.utilization.UtilizationTrace`
covering the requested window, plus summary statistics.

Scheduling policy
-----------------
* **FCFS**: jobs start in submission order whenever the head of the queue
  fits on some node.
* **EASY backfill**: when the head job does not fit, a *reservation* is
  computed for it (the earliest time enough cores will be free on one node,
  assuming no further arrivals), and later jobs may start out of order as
  long as they terminate before that reservation or do not use the reserved
  node's cores.  This is the policy most production HPC schedulers default
  to and it keeps simulated utilisation realistically high.

Jobs in this model never span nodes (matching the high-throughput IRIS
workload); wide requests are capped at the node core count by the job
generator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.workload.cluster import SimulatedCluster
from repro.workload.fleet import FleetUtilization
from repro.workload.jobs import Job
from repro.workload.scheduling_index import (
    PendingJobQueue,
    earliest_fit_time,
)
from repro.workload.utilization import UtilizationTrace

@dataclass(frozen=True)
class Placement:
    """A job's execution record."""

    job: Job
    node_index: int
    start_time_s: float
    end_time_s: float

    @property
    def wait_time_s(self) -> float:
        return self.start_time_s - self.job.submit_time_s


@dataclass
class SchedulerStatistics:
    """Summary statistics of a scheduling run."""

    jobs_submitted: int = 0
    jobs_started: int = 0
    jobs_completed_in_window: int = 0
    jobs_unschedulable: int = 0
    mean_wait_s: float = 0.0
    max_wait_s: float = 0.0
    backfilled_jobs: int = 0
    core_seconds_delivered: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """The statistics as a plain dict (for reports and JSON output)."""
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_started": self.jobs_started,
            "jobs_completed_in_window": self.jobs_completed_in_window,
            "jobs_unschedulable": self.jobs_unschedulable,
            "mean_wait_s": self.mean_wait_s,
            "max_wait_s": self.max_wait_s,
            "backfilled_jobs": self.backfilled_jobs,
            "core_seconds_delivered": self.core_seconds_delivered,
        }


class BackfillScheduler:
    """FCFS + EASY-backfill scheduler over a simulated cluster.

    Parameters
    ----------
    cluster:
        The cluster to schedule onto.  Its allocation state is reset at the
        start of every :meth:`run`.
    backfill_depth:
        How many queued jobs behind the head are examined as backfill
        candidates each time the head is blocked.
    """

    def __init__(self, cluster: SimulatedCluster, backfill_depth: int = 50):
        if backfill_depth < 0:
            raise ValueError("backfill_depth must be non-negative")
        self._cluster = cluster
        self._backfill_depth = backfill_depth

    # -- core scheduling loop ----------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        duration_s: float,
    ) -> Tuple[List[Placement], SchedulerStatistics]:
        """Schedule ``jobs`` and return placements plus statistics.

        The simulation processes submissions in time order and runs until
        every submitted job has started (so the utilisation trace covering
        ``[0, duration_s)`` reflects the sustained load), but statistics and
        traces only consider the requested window.

        The loop resolves first-fit via a segment-tree index, keeps the
        pending queue in a tombstoned deque and computes EASY reservations
        by a lazy early-exit heap walk (:meth:`_run_indexed`).
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        cluster = self._cluster
        cluster.reset()
        largest_node_cores = max(node.cores for node in cluster.nodes)
        pending = sorted(jobs, key=lambda job: (job.submit_time_s, job.job_id))
        # Jobs wider than the widest node can never start in a single-node
        # placement model; drop them up front and account for them.
        unschedulable = [job for job in pending if job.cores > largest_node_cores]
        pending = [job for job in pending if job.cores <= largest_node_cores]
        stats = SchedulerStatistics(
            jobs_submitted=len(pending) + len(unschedulable),
            jobs_unschedulable=len(unschedulable),
        )
        placements, waits, backfilled = self._run_indexed(pending)
        stats.jobs_started = len(placements)
        stats.backfilled_jobs = backfilled
        stats.jobs_completed_in_window = sum(
            1 for p in placements if p.end_time_s <= duration_s
        )
        stats.mean_wait_s = float(np.mean(waits)) if waits else 0.0
        stats.max_wait_s = float(np.max(waits)) if waits else 0.0
        stats.core_seconds_delivered = float(
            sum(
                max(0.0, min(p.end_time_s, duration_s) - min(p.start_time_s, duration_s))
                * p.job.cores
                for p in placements
            )
        )
        return placements, stats

    def _run_indexed(
        self, pending: List[Job],
    ) -> Tuple[List[Placement], List[float], int]:
        """The indexed event loop: same decisions, sublinear data structures.

        Every decision point mirrors the seed event loop exactly (kept as
        the bit-identity oracle in ``tests/oracles/scheduler.py``) —
        first-fit answers come from the cluster's segment-tree index
        instead of an O(N) scan, the pending queue is a tombstoned deque
        instead of a ``pop(0)``/``remove`` list, admission batches over a
        pre-sorted submit-time array via ``searchsorted``, and the EASY
        reservation walks the running heap lazily with early exit, cached
        on ``(head job, allocation state)`` so a blocked head crossing
        several arrival-only events does not recompute it.
        """
        cluster = self._cluster
        placements: List[Placement] = []
        # Local free-core mirror (plain ints) plus the leftmost-fit index.
        # The cluster is NOT updated per operation — two numpy scalar
        # updates per placement would dominate this loop — its state is
        # written back wholesale after the loop (``sync_free_cores``),
        # ending bit-identical to the seed loop's incremental updates.
        free = [node.free_cores for node in cluster.nodes]
        index = cluster.core_index()
        submit_times = np.array([job.submit_time_s for job in pending],
                                dtype=np.float64)
        # Plain-float copy: per-event comparisons against the next submit
        # time must not pay numpy scalar extraction.
        submit_list: List[float] = submit_times.tolist()
        # (end_time, node_index, cores) min-heap of running jobs.
        running: List[Tuple[float, int, int]] = []
        queue = PendingJobQueue()
        now = 0.0
        submit_index = 0
        count = len(pending)
        backfilled = 0
        waits: List[float] = []
        # Reservation cache: valid while the head job and the allocation
        # state (version-stamped on every allocate/release) are unchanged,
        # so a head blocked across several arrival-only events computes
        # its reservation once.
        version = 0
        cached_head_id = -1
        cached_version = -1
        cached_reservation = INFINITY = float("inf")
        # Hot-path local bindings (attribute lookups add up at fleet scale).
        heappush, heappop = heapq.heappush, heapq.heappop
        index_first_fit, index_set_free = index.first_fit, index.set_free
        queue_head, queue_pop_head = queue.head, queue.pop_head
        placements_append, waits_append = placements.append, waits.append
        depth = self._backfill_depth

        while submit_index < count or queue:
            # Admit all jobs submitted up to the current time.  The batch
            # boundary comes from one searchsorted over the pre-sorted
            # submit times, guarded by a plain compare so the (frequent)
            # nothing-to-admit case costs no numpy call at all.
            if submit_index < count and submit_list[submit_index] <= now:
                admit_until = int(np.searchsorted(submit_times, now,
                                                  side="right"))
                while submit_index < admit_until:
                    queue.append(pending[submit_index])
                    submit_index += 1
            progressed = False
            # FCFS: start queue-head jobs while they fit.
            while queue:
                while running and running[0][0] <= now:
                    end_time, node_index, cores = heappop(running)
                    new_free = free[node_index] + cores
                    free[node_index] = new_free
                    index_set_free(node_index, new_free)
                    version += 1
                    if end_time > now:  # pragma: no cover - end <= now here
                        now = end_time
                job = queue_head()
                cores = job.cores
                node_index = index_first_fit(cores)
                if node_index is None:
                    break
                new_free = free[node_index] - cores
                free[node_index] = new_free
                index_set_free(node_index, new_free)
                version += 1
                end_time = now + job.runtime_s
                heappush(running, (end_time, node_index, cores))
                placements_append(Placement(job=job, node_index=node_index,
                                            start_time_s=now,
                                            end_time_s=end_time))
                waits_append(now - job.submit_time_s)
                queue_pop_head()
                progressed = True
            # EASY backfill when the head is blocked.
            if queue:
                head = queue_head()
                if head.job_id != cached_head_id or version != cached_version:
                    cached_reservation = earliest_fit_time(
                        head.cores, running, free)
                    cached_head_id = head.job_id
                    cached_version = version
                reservation = cached_reservation
                for candidate in queue.backfill_candidates(depth):
                    if now + candidate.runtime_s <= reservation:
                        cores = candidate.cores
                        node_index = index_first_fit(cores)
                        if node_index is None:
                            continue
                        new_free = free[node_index] - cores
                        free[node_index] = new_free
                        index_set_free(node_index, new_free)
                        version += 1
                        end_time = now + candidate.runtime_s
                        heappush(running, (end_time, node_index, cores))
                        placements_append(Placement(
                            job=candidate, node_index=node_index,
                            start_time_s=now, end_time_s=end_time))
                        waits_append(now - candidate.submit_time_s)
                        queue.discard(candidate)
                        backfilled += 1
                        progressed = True
            if queue or submit_index < count:
                # Advance time to the next event: a completion or a submission.
                next_completion = running[0][0] if running else INFINITY
                next_submission = (submit_list[submit_index]
                                   if submit_index < count else INFINITY)
                next_event = (next_completion
                              if next_completion <= next_submission
                              else next_submission)
                if next_event == INFINITY:
                    break  # pragma: no cover - defensive; cannot happen with valid input
                if not progressed and next_event <= now:
                    # Avoid an infinite loop if no event advances time, but
                    # never jump past a pending submission.
                    next_event = min(now + 1.0, next_submission)
                while running and running[0][0] <= next_event:
                    end_time, node_index, cores = heappop(running)
                    new_free = free[node_index] + cores
                    free[node_index] = new_free
                    index_set_free(node_index, new_free)
                    version += 1
                    if end_time > now:
                        now = end_time
                if next_event > now:
                    now = next_event

        cluster.sync_free_cores(free)
        return placements, waits, backfilled

    # -- trace construction --------------------------------------------------------

    def build_trace(
        self,
        placements: Sequence[Placement],
        duration_s: float,
        step_s: float = 60.0,
        start_s: float = 0.0,
    ) -> UtilizationTrace:
        """Convert placements into a per-node utilisation trace.

        Each placement contributes ``cores * cpu_intensity / node_cores`` to
        its node's utilisation for every sample interval it overlaps,
        partial first/last intervals pro-rated; the interval-overlap math
        runs on arrays
        (:meth:`~repro.workload.fleet.FleetUtilization.from_placements`).
        """
        return FleetUtilization.from_placements(
            placements,
            [node.node_id for node in self._cluster.nodes],
            [node.cores for node in self._cluster.nodes],
            duration_s,
            step_s=step_s,
            start_s=start_s,
        )

    def simulate(
        self,
        jobs: Sequence[Job],
        duration_s: float,
        step_s: float = 60.0,
    ) -> Tuple[UtilizationTrace, SchedulerStatistics]:
        """Run the scheduler and return the utilisation trace and statistics."""
        placements, stats = self.run(jobs, duration_s)
        trace = self.build_trace(placements, duration_s, step_s=step_s)
        return trace, stats


__all__ = [
    "BackfillScheduler",
    "Placement",
    "SchedulerStatistics",
]
