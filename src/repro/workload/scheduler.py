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

Free flow
---------
While nobody is queued, the loop does not step through events: it takes
each arrival in turn, releases the running jobs that have ended by its
submit time and starts it at once.  Only an arrival that does not fit
hands over to the event loop.  This makes the same decisions as stepping
event by event: with an empty queue a completion-only event admits
nothing, starts nothing and computes no reservation, releases commute,
and the free-core index is a function of its leaves, so each start sees
exactly the free cores the event loop would show it.  In the full-scale
IRIS snapshot no job waits at any site, so its whole schedule is free
flow.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
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

@dataclass(frozen=True, slots=True)
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

        The loop allocates and releases through a segment-tree index of
        free cores, keeps the pending queue in a tombstoned deque and
        computes EASY reservations by a lazy early-exit heap walk
        (:meth:`_run_indexed`).  While the queue is empty it starts each
        arrival on submit without stepping through completions (the
        free-flow phase in the module docstring).
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
        completed = 0

        def delivered_terms():
            # A placement delivers max(0, min(end, d) - start) * cores
            # core-seconds in the window; a start past d leaves nothing
            # either way.  Counting completions here makes this the one
            # pass over the placements.
            nonlocal completed
            for placement in placements:
                end = placement.end_time_s
                if end <= duration_s:
                    completed += 1
                else:
                    end = duration_s
                span = end - placement.start_time_s
                yield (span if span > 0.0 else 0.0) * placement.job.cores

        # Summed by ``sum`` in placement order, as always, and streamed: a
        # list of the terms would raise the process's peak memory.
        stats.core_seconds_delivered = float(sum(delivered_terms()))
        stats.jobs_completed_in_window = completed
        stats.mean_wait_s = float(np.mean(waits)) if waits else 0.0
        stats.max_wait_s = float(np.max(waits)) if waits else 0.0
        return placements, stats

    def _run_indexed(
        self, pending: List[Job],
    ) -> Tuple[List[Placement], List[float], int]:
        """The indexed event loop: same decisions, sublinear data structures.

        Every decision point mirrors the seed event loop exactly (kept as
        the bit-identity oracle in ``tests/oracles/scheduler.py``).  The
        cluster's :class:`~repro.workload.scheduling_index.FreeCoreIndex`
        is the only record of free cores during the loop: ``take`` finds
        the first fit and allocates in one pass instead of an O(N) scan,
        ``give`` releases, and the EASY reservation reads the counts from
        it.  The pending queue is a tombstoned deque instead of a
        ``pop(0)``/``remove`` list, admission batches are cut by
        ``bisect`` over the sorted submit times, and the reservation walks
        the running heap lazily with early exit, cached on ``(head job,
        allocation state)`` so a blocked head crossing several
        arrival-only events does not recompute it.

        Each outer iteration opens with the **free-flow phase** when the
        queue is empty: the pending jobs are taken one at a time, in order.
        An arrival after ``now`` moves ``now`` to its submit time; every
        running job ending by ``now`` is released, in heap order, and one
        ``take`` starts the arrival.  The first arrival that does not fit
        is queued and the iteration carries on as the event loop,
        unchanged.  The event loop's time advance then runs only while
        somebody is queued.

        Stepping event by event reaches the same state.  With nobody
        waiting, each completion-only event only releases cores, and the
        advances end exactly at the next arrival, having released the same
        jobs in the same heap order.  ``give`` calls commute and the
        max-tree is a function of its leaves, so every ``take`` sees the
        leaves the event loop would give it, and ``now`` ends the same.  A
        blocked arrival is retried once by the FCFS pass, which changes
        nothing, and the rest of its batch is admitted behind it, as the
        event loop would have queued them.
        """
        cluster = self._cluster
        placements: List[Placement] = []
        # The cluster is NOT updated per operation — two numpy scalar
        # updates per placement would dominate this loop — its state is
        # written back wholesale from the index's leaves after the loop
        # (``sync_free_cores``), ending bit-identical to the seed loop's
        # incremental updates.
        index = cluster.core_index()
        submit_list: List[float] = [job.submit_time_s for job in pending]
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
        take, give = index.take, index.give
        queue_head, queue_pop_head = queue.head, queue.pop_head
        placements_append, waits_append = placements.append, waits.append
        depth = self._backfill_depth

        while True:
            if not queue:
                # Free flow (see the docstring): start each arrival on
                # submit, and fall into the event loop on the first one
                # that does not fit.
                while submit_index < count:
                    job = pending[submit_index]
                    submit = submit_list[submit_index]
                    submit_index += 1
                    if submit > now:
                        now = submit
                    while running and running[0][0] <= now:
                        _, node_index, cores = heappop(running)
                        give(node_index, cores)
                    cores = job.cores
                    node_index = take(cores)
                    if node_index < 0:
                        # As the event loop's iteration at ``now`` would
                        # hold it: at the queue head.  The version bump
                        # retires any cached reservation.
                        queue.append(job)
                        version += 1
                        break
                    end_time = now + job.runtime_s
                    heappush(running, (end_time, node_index, cores))
                    placements_append(Placement(job, node_index, now, end_time))
                    waits_append(now - submit)
                else:
                    break
            # Admit all jobs submitted up to the current time, guarded by a
            # plain compare so the (frequent) nothing-to-admit case costs
            # no search at all.
            if submit_index < count and submit_list[submit_index] <= now:
                admit_until = bisect_right(submit_list, now, submit_index)
                queue.extend(pending[submit_index:admit_until])
                submit_index = admit_until
            # FCFS: start queue-head jobs while they fit.
            while queue:
                while running and running[0][0] <= now:
                    _, node_index, cores = heappop(running)
                    give(node_index, cores)
                    version += 1
                job = queue_head()
                cores = job.cores
                node_index = take(cores)
                if node_index < 0:
                    break
                version += 1
                end_time = now + job.runtime_s
                heappush(running, (end_time, node_index, cores))
                placements_append(Placement(job, node_index, now, end_time))
                waits_append(now - job.submit_time_s)
                queue_pop_head()
            # EASY backfill when the head is blocked.
            if queue:
                head = queue_head()
                if head.job_id != cached_head_id or version != cached_version:
                    cached_reservation = earliest_fit_time(
                        head.cores, running, index)
                    cached_head_id = head.job_id
                    cached_version = version
                reservation = cached_reservation
                for candidate in queue.backfill_candidates(depth):
                    if now + candidate.runtime_s <= reservation:
                        cores = candidate.cores
                        node_index = take(cores)
                        if node_index < 0:
                            continue
                        version += 1
                        end_time = now + candidate.runtime_s
                        heappush(running, (end_time, node_index, cores))
                        placements_append(
                            Placement(candidate, node_index, now, end_time))
                        waits_append(now - candidate.submit_time_s)
                        queue.discard(candidate)
                        backfilled += 1
            if queue:
                # Advance time to the next event: a completion or a
                # submission.  With the queue empty the free-flow phase
                # advances instead, straight to the next arrival.  An
                # iteration that started nothing has released every job
                # ending by ``now`` and admitted every submission up to it,
                # so the next event is later and the seed loop's anti-stall
                # clamp has nothing to do here.
                next_completion = running[0][0] if running else INFINITY
                next_submission = (submit_list[submit_index]
                                   if submit_index < count else INFINITY)
                next_event = (next_completion
                              if next_completion <= next_submission
                              else next_submission)
                if next_event == INFINITY:
                    break  # pragma: no cover - defensive; cannot happen with valid input
                while running and running[0][0] <= next_event:
                    end_time, node_index, cores = heappop(running)
                    give(node_index, cores)
                    version += 1
                    if end_time > now:
                        now = end_time
                if next_event > now:
                    now = next_event

        cluster.sync_free_cores(index.counts())
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
