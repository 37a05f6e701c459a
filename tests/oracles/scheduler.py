"""The seed scheduling loop and per-placement trace builder.

:func:`run_reference` is the event loop the indexed scheduler replaced
(O(N) first-fit scans, ``list.pop(0)``/``list.remove`` queue surgery and a
full sort of the running set per blocked head).  It has the signature of
``BackfillScheduler._run_indexed``, so it can stand in for it, and the
indexed loop must match it bit for bit: same placements, statistics and
final cluster state.

:func:`build_trace_loop` is the per-placement utilisation builder that
``FleetUtilization.from_placements`` replaced; it has the signature of
``BackfillScheduler.build_trace`` and agrees with it to float64 summation
order.
"""

from __future__ import annotations

import heapq
import types
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.workload.cluster import SimulatedCluster
from repro.workload.jobs import Job
from repro.workload.scheduler import (
    BackfillScheduler,
    Placement,
    SchedulerStatistics,
)
from repro.workload.utilization import UtilizationTrace


def run_reference(
    scheduler: BackfillScheduler, pending: List[Job],
) -> Tuple[List[Placement], List[float], int]:
    """The seed event loop over ``pending`` (already sorted and filtered)."""
    cluster = scheduler._cluster
    placements: List[Placement] = []
    # (end_time, node_index, cores) min-heap of running jobs.
    running: List[Tuple[float, int, int]] = []
    queue: List[Job] = []
    now = 0.0
    submit_index = 0
    backfilled = 0
    waits: List[float] = []

    def release_finished(until: float) -> None:
        nonlocal now
        while running and running[0][0] <= until:
            end_time, node_index, cores = heapq.heappop(running)
            cluster.release(node_index, cores)
            now = max(now, end_time)

    def try_start(job: Job, at_time: float) -> Optional[Placement]:
        node_index = cluster.find_node_with_free_cores(job.cores)
        if node_index is None:
            return None
        cluster.allocate(node_index, job.cores)
        end_time = at_time + job.runtime_s
        heapq.heappush(running, (end_time, node_index, job.cores))
        placement = Placement(job=job, node_index=node_index,
                              start_time_s=at_time, end_time_s=end_time)
        placements.append(placement)
        waits.append(placement.wait_time_s)
        return placement

    while submit_index < len(pending) or queue:
        # Admit all jobs submitted up to the current time.
        while (submit_index < len(pending)
               and pending[submit_index].submit_time_s <= now):
            queue.append(pending[submit_index])
            submit_index += 1
        progressed = False
        # FCFS: start queue-head jobs while they fit.
        while queue:
            release_finished(now)
            placement = try_start(queue[0], now)
            if placement is None:
                break
            queue.pop(0)
            progressed = True
        # EASY backfill when the head is blocked.
        if queue:
            reservation = head_reservation(queue[0], running, cluster)
            candidates = queue[1: 1 + scheduler._backfill_depth]
            for candidate in list(candidates):
                if now + candidate.runtime_s <= reservation:
                    placement = try_start(candidate, now)
                    if placement is not None:
                        queue.remove(candidate)
                        backfilled += 1
                        progressed = True
        if queue or submit_index < len(pending):
            # Advance time to the next event: a completion or a submission.
            next_completion = running[0][0] if running else float("inf")
            next_submission = (
                pending[submit_index].submit_time_s
                if submit_index < len(pending)
                else float("inf")
            )
            next_event = min(next_completion, next_submission)
            if next_event == float("inf"):
                break
            if not progressed and next_event <= now:
                # Avoid an infinite loop if no event advances time, but
                # never jump past a submission arriving inside the skipped
                # interval (next_submission > now here, since everything
                # up to now was already admitted).
                next_event = min(now + 1.0, next_submission)
            release_finished(next_event)
            now = max(now, next_event)

    return placements, waits, backfilled


def head_reservation(
    head: Job,
    running: List[Tuple[float, int, int]],
    cluster: SimulatedCluster,
) -> float:
    """Earliest time the blocked head job is guaranteed to fit somewhere.

    Starting from each node's currently free cores, walk the running jobs
    in completion order, accumulating freed cores per node; the
    reservation is the completion time at which some node first has
    enough free cores for the head job.  Conservative (ignores future
    submissions), exactly as EASY does.
    """
    freed: Dict[int, int] = {
        node.index: node.free_cores for node in cluster.nodes
    }
    for end_time, node_index, cores in sorted(running):
        freed[node_index] = freed.get(node_index, 0) + cores
        if freed[node_index] >= head.cores:
            return end_time
    return float("inf")


def run(scheduler: BackfillScheduler, jobs: Sequence[Job],
        duration_s: float) -> Tuple[List[Placement], SchedulerStatistics]:
    """``scheduler.run(jobs, duration_s)`` with the seed loop swapped in.

    Only the loop changes: job filtering, statistics and the cluster
    reset stay the production code's, so the differential isolates the
    placement decisions.
    """
    scheduler._run_indexed = types.MethodType(run_reference, scheduler)
    try:
        return scheduler.run(jobs, duration_s)
    finally:
        del scheduler._run_indexed


def build_trace_loop(
    scheduler: BackfillScheduler,
    placements: Sequence[Placement],
    duration_s: float,
    step_s: float = 60.0,
    start_s: float = 0.0,
) -> UtilizationTrace:
    """The seed per-placement trace builder."""
    if step_s <= 0:
        raise ValueError("step_s must be positive")
    n_samples = int(round(duration_s / step_s))
    if n_samples <= 0:
        raise ValueError("duration_s must cover at least one sample")
    node_ids = [node.node_id for node in scheduler._cluster.nodes]
    node_cores = np.array([node.cores for node in scheduler._cluster.nodes],
                          dtype=np.float64)
    matrix = np.zeros((len(node_ids), n_samples), dtype=np.float64)
    edges = start_s + step_s * np.arange(n_samples + 1)
    for placement in placements:
        t0 = max(placement.start_time_s, start_s)
        t1 = min(placement.end_time_s, start_s + duration_s)
        if t1 <= t0:
            continue
        first = int((t0 - start_s) // step_s)
        last = min(int((t1 - start_s) // step_s), n_samples - 1)
        weight = placement.job.cores * placement.job.cpu_intensity
        if first == last:
            fraction = (t1 - t0) / step_s
            matrix[placement.node_index, first] += weight * fraction
            continue
        # First partial interval.
        matrix[placement.node_index, first] += (
            weight * (edges[first + 1] - t0) / step_s)
        # Full intervals.
        if last - first > 1:
            matrix[placement.node_index, first + 1: last] += weight
        # Last partial interval.
        matrix[placement.node_index, last] += (
            weight * (t1 - edges[last]) / step_s)
    matrix /= node_cores[:, None]
    np.clip(matrix, 0.0, 1.0, out=matrix)
    return UtilizationTrace(start_s, step_s, node_ids, matrix)


__all__ = ["build_trace_loop", "head_reservation", "run", "run_reference"]
