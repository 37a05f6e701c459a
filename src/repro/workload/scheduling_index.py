"""Index structures backing the indexed scheduling loop.

The seed scheduling loop (kept as the oracle in
``tests/oracles/scheduler.py``) is dominated by three superlinear terms at
fleet scale:

* every placement attempt scans all N nodes
  (``np.nonzero(free >= cores)[0]``);
* every FCFS start pays ``list.pop(0)`` and every backfill start pays
  ``list.remove`` on the pending queue;
* every blocked-head iteration sorts the entire running set and builds a
  fresh N-entry dict to compute the EASY reservation.

This module provides drop-in replacements with the *same decision
semantics* — the indexed loop must produce bit-identical placement
sequences — but sublinear cost:

* :class:`FreeCoreIndex` — a binary max-tree over per-node free-core
  counts answering "leftmost node with at least ``c`` free cores"
  (exactly the first-fit-in-index-order semantics
  :meth:`~repro.workload.cluster.SimulatedCluster.find_node_with_free_cores`
  pins) in O(log N), with O(log N) point updates.
* :class:`PendingJobQueue` — a deque plus tombstone set: O(1) head
  pop, O(1) amortised removal of backfilled jobs from the middle.
* :func:`earliest_fit_time` — the EASY reservation computed by walking
  the running min-heap *lazily* in completion order (a k-smallest
  frontier traversal), stopping at the first node that accumulates
  enough free cores instead of sorting all R running jobs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.workload.jobs import Job


class FreeCoreIndex:
    """Leftmost-fit index over per-node free-core counts.

    A complete binary max-tree stored in an array (segment tree over the
    node axis, padded to a power of two): internal node ``i`` holds the
    maximum free-core count in its leaf range, leaves ``size + j`` hold
    node ``j``'s current free cores.  Padding leaves hold 0 free cores and
    are unreachable for any request of at least one core.

    ``first_fit(c)`` descends left-first, so it returns exactly the
    lowest-index node with ``free >= c`` — the same answer as the O(N)
    array scan in
    :meth:`~repro.workload.cluster.SimulatedCluster.find_node_with_free_cores`,
    in O(log N).
    """

    __slots__ = ("_size", "_count", "_tree")

    def __init__(self, free_cores: Iterable[int]):
        leaves = [int(value) for value in free_cores]
        if not leaves:
            raise ValueError("FreeCoreIndex needs at least one node")
        if min(leaves) < 0:
            raise ValueError("free core counts must be non-negative")
        size = 1
        while size < len(leaves):
            size <<= 1
        tree = [0] * (2 * size)
        tree[size:size + len(leaves)] = leaves
        for i in range(size - 1, 0, -1):
            left, right = tree[2 * i], tree[2 * i + 1]
            tree[i] = left if left >= right else right
        self._size = size
        self._count = len(leaves)
        self._tree = tree

    @property
    def node_count(self) -> int:
        return self._count

    def free(self, node_index: int) -> int:
        """Current free cores recorded for ``node_index``."""
        if not 0 <= node_index < self._count:
            raise IndexError(f"node index {node_index} out of range")
        return self._tree[self._size + node_index]

    def set_free(self, node_index: int, free: int) -> None:
        """Record that ``node_index`` now has ``free`` cores free."""
        if not 0 <= node_index < self._count:
            raise IndexError(f"node index {node_index} out of range")
        tree = self._tree
        i = self._size + node_index
        tree[i] = free
        i >>= 1
        while i:
            left, right = tree[2 * i], tree[2 * i + 1]
            best = left if left >= right else right
            if tree[i] == best:
                break  # ancestors are already consistent
            tree[i] = best
            i >>= 1

    def first_fit(self, cores: int) -> Optional[int]:
        """Lowest node index with at least ``cores`` free, else ``None``."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        tree = self._tree
        if tree[1] < cores:
            return None
        i = 1
        size = self._size
        while i < size:
            i <<= 1
            if tree[i] < cores:
                i += 1
        return i - size


class PendingJobQueue:
    """FIFO pending queue with O(1)-amortised middle removal.

    The reference loop keeps a plain list: ``pop(0)`` for FCFS starts and
    ``remove(candidate)`` for backfill starts, both O(queue).  Here the
    jobs live in a deque and backfilled jobs are *tombstoned* by id; dead
    entries are skipped at the head and compacted away whenever they would
    outnumber the live ones, keeping every operation O(1) amortised while
    preserving exact FIFO order over the live entries.
    """

    __slots__ = ("_entries", "_tombstones", "_live")

    def __init__(self):
        self._entries: Deque[Job] = deque()
        self._tombstones: Set[int] = set()
        self._live = 0

    def __bool__(self) -> bool:
        return self._live > 0

    def __len__(self) -> int:
        return self._live

    def append(self, job: Job) -> None:
        self._entries.append(job)
        self._live += 1

    def _skip_dead_head(self) -> None:
        entries, tombstones = self._entries, self._tombstones
        while entries and entries[0].job_id in tombstones:
            tombstones.discard(entries.popleft().job_id)

    def head(self) -> Job:
        """The oldest live job; raises :class:`IndexError` when empty."""
        self._skip_dead_head()
        return self._entries[0]

    def pop_head(self) -> Job:
        """Remove and return the oldest live job."""
        self._skip_dead_head()
        job = self._entries.popleft()
        self._live -= 1
        return job

    def discard(self, job: Job) -> None:
        """Tombstone ``job`` (a backfilled candidate) wherever it sits."""
        self._tombstones.add(job.job_id)
        self._live -= 1
        if len(self._tombstones) > self._live:
            self._compact()

    def _compact(self) -> None:
        tombstones = self._tombstones
        self._entries = deque(
            job for job in self._entries if job.job_id not in tombstones)
        tombstones.clear()

    def backfill_candidates(self, depth: int) -> List[Job]:
        """The first ``depth`` live jobs *behind the head*, in queue order.

        Equivalent to the reference loop's ``queue[1:1 + depth]`` snapshot:
        a list, taken before any backfill start mutates the queue.
        """
        if depth <= 0 or self._live <= 1:
            return []
        self._skip_dead_head()
        candidates: List[Job] = []
        tombstones = self._tombstones
        seen_head = False
        for job in self._entries:
            if job.job_id in tombstones:
                continue
            if not seen_head:
                seen_head = True
                continue
            candidates.append(job)
            if len(candidates) == depth:
                break
        return candidates


def earliest_fit_time(
    cores_needed: int,
    running: List[Tuple[float, int, int]],
    free_cores: Sequence[int],
) -> float:
    """EASY reservation: first completion time some node fits ``cores_needed``.

    Semantically identical to walking ``sorted(running)`` while
    accumulating freed cores per node on top of the current free counts
    (the seed loop's reservation, ``tests/oracles/scheduler.py``), but the
    heap is traversed lazily: a frontier of heap positions yields entries
    in exactly sorted order (every unvisited entry has an ancestor in the
    frontier, and heap ancestors never compare greater), so the walk stops
    after the k completions that actually matter instead of paying
    O(R log R) to sort all R running jobs.  Entries comparing equal are
    interchangeable — identical ``(end, node, cores)`` contributions — so
    the frontier's index tie-break cannot change the returned time.

    Returns ``inf`` when even draining every running job never frees
    enough cores on one node.
    """
    if not running:
        return float("inf")
    freed: Dict[int, int] = {}
    count = len(running)
    frontier: List[Tuple[Tuple[float, int, int], int]] = [(running[0], 0)]
    while frontier:
        (end_time, node_index, cores), position = heapq.heappop(frontier)
        total = freed.get(node_index)
        if total is None:
            total = int(free_cores[node_index])
        total += cores
        if total >= cores_needed:
            return end_time
        freed[node_index] = total
        child = 2 * position + 1
        if child < count:
            heapq.heappush(frontier, (running[child], child))
        child += 1
        if child < count:
            heapq.heappush(frontier, (running[child], child))
    return float("inf")


__all__ = ["FreeCoreIndex", "PendingJobQueue", "earliest_fit_time"]
