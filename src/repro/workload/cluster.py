"""The simulated cluster: nodes, core accounting and placement queries.

The cluster model is deliberately minimal — a set of nodes, each with a core
count and a current number of free cores — because the only thing the energy
pipeline needs from scheduling is *which cores were busy, when, and how
hard*.  Memory, topology and I/O contention are out of scope (they shift
runtimes, not the mapping from utilisation to power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.inventory.node import NodeInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.workload.scheduling_index import FreeCoreIndex


@dataclass
class SimulatedNode:
    """A schedulable node.

    Attributes
    ----------
    index:
        Position of the node within the cluster (row index in traces).
    node_id:
        Identifier, normally the :class:`~repro.inventory.node.NodeInstance`
        id when the cluster is built from an inventory.
    cores:
        Total schedulable cores.
    free_cores:
        Currently unallocated cores.
    """

    index: int
    node_id: str
    cores: int
    free_cores: int

    def __post_init__(self):
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if not 0 <= self.free_cores <= self.cores:
            raise ValueError("free_cores must be within [0, cores]")

    def allocate(self, cores: int) -> None:
        """Reserve ``cores`` cores; raises if not available."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        if cores > self.free_cores:
            raise ValueError(
                f"node {self.node_id} has {self.free_cores} free cores, requested {cores}"
            )
        self.free_cores -= cores

    def release(self, cores: int) -> None:
        """Return ``cores`` cores to the free pool; raises on over-release."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        if self.free_cores + cores > self.cores:
            raise ValueError(f"release of {cores} cores would exceed capacity on {self.node_id}")
        self.free_cores += cores

    @property
    def busy_cores(self) -> int:
        return self.cores - self.free_cores


class SimulatedCluster:
    """A collection of :class:`SimulatedNode` with fast placement queries."""

    def __init__(self, nodes: Sequence[SimulatedNode]):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        indices = [node.index for node in nodes]
        if indices != list(range(len(nodes))):
            raise ValueError("node indices must be 0..n-1 in order")
        ids = [node.node_id for node in nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("node ids must be unique")
        self._nodes: List[SimulatedNode] = list(nodes)
        self._free = np.array([node.free_cores for node in nodes], dtype=np.int64)
        # Core counts are immutable after construction; summing per query
        # (utilization() asks on every call) costs O(N) for a constant.
        self._total_cores = int(sum(node.cores for node in nodes))

    # -- constructors -------------------------------------------------------------

    @classmethod
    def homogeneous(cls, node_count: int, cores_per_node: int,
                    id_prefix: str = "node") -> "SimulatedCluster":
        """A cluster of ``node_count`` identical nodes."""
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        nodes = [
            SimulatedNode(index=i, node_id=f"{id_prefix}-{i:05d}",
                          cores=cores_per_node, free_cores=cores_per_node)
            for i in range(node_count)
        ]
        return cls(nodes)

    @classmethod
    def from_inventory(cls, instances: Sequence[NodeInstance]) -> "SimulatedCluster":
        """Build a cluster from inventory node instances (using their core counts)."""
        if not instances:
            raise ValueError("from_inventory requires at least one node instance")
        nodes = []
        for index, instance in enumerate(instances):
            cores = max(instance.spec.total_cores, 1)
            nodes.append(
                SimulatedNode(index=index, node_id=instance.node_id,
                              cores=cores, free_cores=cores)
            )
        return cls(nodes)

    # -- queries -----------------------------------------------------------------

    @property
    def nodes(self) -> List[SimulatedNode]:
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def total_cores(self) -> int:
        return self._total_cores

    @property
    def free_cores(self) -> int:
        return int(self._free.sum())

    @property
    def busy_cores(self) -> int:
        return self.total_cores - self.free_cores

    def utilization(self) -> float:
        """Fraction of cores currently allocated."""
        return self.busy_cores / self.total_cores

    def find_node_with_free_cores(self, cores: int) -> Optional[int]:
        """Index of the first node with at least ``cores`` free, else ``None``.

        "First fit in index order" keeps early nodes packed, which is what
        production schedulers do to leave whole nodes free for wide jobs.
        """
        if cores <= 0:
            raise ValueError("cores must be positive")
        candidates = np.nonzero(self._free >= cores)[0]
        if candidates.size == 0:
            return None
        return int(candidates[0])

    def core_index(self) -> "FreeCoreIndex":
        """A :class:`~repro.workload.scheduling_index.FreeCoreIndex` snapshot.

        Answers the same leftmost-fit query as
        :meth:`find_node_with_free_cores` in O(log N).  The caller owns the
        returned index and the cluster does not see its updates: the
        indexed scheduler allocates and releases through it and writes the
        final counts back with :meth:`sync_free_cores`.
        """
        from repro.workload.scheduling_index import FreeCoreIndex

        return FreeCoreIndex(int(value) for value in self._free)

    # -- state changes -------------------------------------------------------------

    def allocate(self, node_index: int, cores: int) -> None:
        """Allocate ``cores`` on node ``node_index``."""
        self._nodes[node_index].allocate(cores)
        self._free[node_index] -= cores

    def release(self, node_index: int, cores: int) -> None:
        """Release ``cores`` on node ``node_index``."""
        self._nodes[node_index].release(cores)
        self._free[node_index] += cores

    def sync_free_cores(self, free_counts: Sequence[int]) -> None:
        """Overwrite every node's free-core count in one batch.

        Used by the indexed scheduler engine, which tracks free cores in
        its own structures during the event loop (paying two numpy scalar
        updates per placement would dominate its runtime) and writes the
        final state back here so the cluster ends bit-identical to an
        incrementally updated run.
        """
        if len(free_counts) != len(self._nodes):
            raise ValueError(
                f"expected {len(self._nodes)} free-core counts, "
                f"got {len(free_counts)}")
        for node, free in zip(self._nodes, free_counts):
            if not 0 <= free <= node.cores:
                raise ValueError(
                    f"free_cores must be within [0, cores] on {node.node_id}")
            node.free_cores = int(free)
        self._free[:] = np.asarray(free_counts, dtype=np.int64)

    def reset(self) -> None:
        """Free every core on every node."""
        for index, node in enumerate(self._nodes):
            node.free_cores = node.cores
            self._free[index] = node.cores


__all__ = ["SimulatedNode", "SimulatedCluster"]
