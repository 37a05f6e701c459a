"""Columnar fleet utilisation: the array-first workload→power interface.

A :class:`FleetUtilization` is the columnar heart of the simulation
substrate: one ``(n_nodes, n_intervals)`` float64 matrix for the *whole*
fleet plus a node-id index with O(1) lookup, instead of anything resembling
one object per node.  It extends
:class:`~repro.workload.utilization.UtilizationTrace` (so every existing
consumer keeps working) with:

* :meth:`FleetUtilization.from_placements` — building the matrix directly
  from scheduler :class:`~repro.workload.scheduler.Placement` records with
  interval-overlap math on arrays.  The per-placement Python loop of the
  historical ``BackfillScheduler.build_trace`` survives only as the
  cross-validation oracle in ``tests/oracles/scheduler.py``.
* O(1) node lookup — ``node_series``/``subset`` resolve ids through a dict
  index rather than a linear scan, which matters at full IRIS scale
  (thousands of nodes × thousands of lookups).
* thin per-node row views — :meth:`node_view` returns a read-only numpy
  view of one node's row (no copy), and :meth:`per_node_views` the whole
  fleet as a mapping, preserving the ergonomics of the old per-node API
  without per-node storage.

The vectorised construction decomposes each placement's coverage of the
sampling grid into (a) a partial first interval, (b) a run of fully covered
intervals, and (c) a partial last interval.  Partials are scatter-added
with :func:`numpy.add.at`; full runs use a boundary (difference) array that
a single cumulative sum turns into per-interval occupancy — O(placements +
nodes × intervals) with no Python-level loop over placements.

:class:`ShardedFleetUtilization` is the out-of-core sibling for fleets
whose dense ``(n_nodes, n_intervals)`` matrix does not fit in RAM (the
full-scale year-long campaigns of the ROADMAP: 100k+ nodes × 8760 hourly
intervals ≈ 7 GB per matrix).  The snapshot experiment uses it for every
site whose matrix would exceed
:data:`repro.snapshot.experiment.DENSE_TRACE_LIMIT_BYTES`.  The node axis is partitioned into fixed-size
shards, each built with the same vectorised placement math and written to
its own ``.npy`` file; shards are re-opened as read-only memmaps, so any
consumer streams one shard's worth of data at a time and the dense matrix
never exists in memory.  A shard directory is self-describing — a
``manifest.json`` records the format version
(:data:`SHARD_FORMAT_VERSION`), the sampling grid and the shard geometry.
The snapshot experiment builds each store in a private temporary
directory and removes it once the site's reductions are done.  Shards are
always float64 and node-major, so a shard row is a dense-matrix row.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro.timeseries.series import TimeSeries
from repro.workload.utilization import UtilizationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.scheduler import Placement

#: Bump when the on-disk shard layout changes; :meth:`ShardedFleetUtilization.
#: open` refuses a directory written under another version.
SHARD_FORMAT_VERSION = 2

#: Name of the shard directory's self-description file.
SHARD_MANIFEST_NAME = "manifest.json"


def _placement_arrays(
    placements: Sequence["Placement"],
    n_nodes: int,
    duration_s: float,
    start_s: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Placements as ``(node_idx, t0, t1, weight)`` arrays, window-clipped.

    The shared front half of the vectorised builders: placements are
    clipped to the trace window (same bound as the per-placement oracle)
    and non-overlapping ones dropped, so the accumulation kernels below
    only ever see in-window work.
    """
    n = len(placements)
    if n == 0:
        empty = np.empty(0)
        return empty.astype(np.int64), empty, empty, empty
    node_idx = np.fromiter((p.node_index for p in placements),
                           dtype=np.int64, count=n)
    if (node_idx < 0).any() or (node_idx >= n_nodes).any():
        raise ValueError("placement node_index outside the fleet")
    t0 = np.fromiter((p.start_time_s for p in placements),
                     dtype=np.float64, count=n)
    t1 = np.fromiter((p.end_time_s for p in placements),
                     dtype=np.float64, count=n)
    weight = np.fromiter(
        (p.job.cores * p.job.cpu_intensity for p in placements),
        dtype=np.float64, count=n)
    end_s = start_s + duration_s
    t0 = np.maximum(t0, start_s)
    t1 = np.minimum(t1, end_s)
    keep = t1 > t0
    if not keep.all():
        node_idx, t0, t1, weight = (a[keep] for a in (node_idx, t0, t1, weight))
    return node_idx, t0, t1, weight


def _accumulate_matrix(
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    n_nodes: int,
    n_samples: int,
    step_s: float,
    start_s: float,
    cores: np.ndarray,
) -> np.ndarray:
    """The vectorised interval-overlap accumulation for one block of nodes.

    ``arrays`` is the output of :func:`_placement_arrays`, with
    ``node_idx`` already shifted into ``[0, n_nodes)`` for this block.
    Interval indices are clamped to the sampled grid, so a window that is
    not a whole number of steps cannot scatter off-grid (the per-placement
    oracle can raise IndexError there instead).  Returns the normalised,
    clipped utilisation matrix for the block.
    """
    node_idx, t0, t1, weight = arrays
    matrix = np.zeros((n_nodes, n_samples), dtype=np.float64)
    if node_idx.size == 0:
        return matrix
    first = np.minimum(((t0 - start_s) // step_s).astype(np.int64),
                       n_samples - 1)
    last = np.minimum(((t1 - start_s) // step_s).astype(np.int64),
                      n_samples - 1)
    edge_first = start_s + step_s * (first + 1.0)  # end of first interval
    edge_last = start_s + step_s * last            # start of last interval

    flat = matrix.reshape(-1)
    single = first == last
    multi = ~single
    m_idx, m_first, m_last = node_idx[multi], first[multi], last[multi]
    m_w = weight[multi]
    row = m_idx * n_samples
    # Fully covered run [first+1, last): boundary deltas, one in-place
    # cumsum.  ``first < last <= n_samples - 1``, so no delta falls off
    # the end of a row.
    if m_idx.size:
        np.add.at(flat, row + m_first + 1, m_w)
        np.add.at(flat, row + m_last, -m_w)
        np.cumsum(matrix, axis=1, out=matrix)
    # Partially covered intervals: placements confined to one interval,
    # then the partial first and last intervals of the others, pro-rated
    # by covered fraction.  They are summed per cell (in this order) and
    # only then added to the run, so each cell is ``partials + run``.
    cells = np.concatenate((node_idx[single] * n_samples + first[single],
                            row + m_first, row + m_last))
    amounts = np.concatenate((
        weight[single] * ((t1[single] - t0[single]) / step_s),
        m_w * (edge_first[multi] - t0[multi]) / step_s,
        m_w * (t1[multi] - edge_last[multi]) / step_s,
    ))
    cells, slot = np.unique(cells, return_inverse=True)
    partials = np.zeros(cells.size, dtype=np.float64)
    np.add.at(partials, slot, amounts)
    flat[cells] += partials

    matrix /= cores[:, None]
    np.clip(matrix, 0.0, 1.0, out=matrix)
    return matrix


class FleetUtilization(UtilizationTrace):
    """A whole fleet's effective utilisation as one columnar matrix.

    Construction is identical to :class:`UtilizationTrace`; the subclass
    adds the node-id index and the vectorised builders.  Instances satisfy
    ``isinstance(x, UtilizationTrace)``, so the power layer and every
    pre-existing consumer accept them unchanged.
    """

    __slots__ = ("_row_index",)

    def __init__(self, start: float, step: float, node_ids: Sequence[str],
                 matrix: np.ndarray):
        super().__init__(start, step, node_ids, matrix)
        self._row_index: Dict[str, int] = {
            node_id: row for row, node_id in enumerate(self._node_ids)
        }

    # -- vectorised construction ---------------------------------------------------

    @classmethod
    def from_placements(
        cls,
        placements: Sequence["Placement"],
        node_ids: Sequence[str],
        node_cores: Sequence[int],
        duration_s: float,
        step_s: float = 60.0,
        start_s: float = 0.0,
    ) -> "FleetUtilization":
        """Build the fleet matrix from placements with array math.

        Each placement contributes ``cores * cpu_intensity / node_cores``
        to its node's row for every interval it overlaps, partial first and
        last intervals pro-rated — the same quantity the historical
        per-placement loop accumulated, computed columnar-ly.
        """
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        n_samples = int(round(duration_s / step_s))
        if n_samples <= 0:
            raise ValueError("duration_s must cover at least one sample")
        n_nodes = len(node_ids)
        cores = np.asarray(node_cores, dtype=np.float64)
        if cores.shape != (n_nodes,):
            raise ValueError("node_cores must have one entry per node id")
        if (cores <= 0).any():
            raise ValueError("node core counts must be positive")
        arrays = _placement_arrays(placements, n_nodes, duration_s, start_s)
        matrix = _accumulate_matrix(arrays, n_nodes, n_samples, step_s,
                                    start_s, cores)
        return cls._from_trusted(start_s, step_s, node_ids, matrix)

    @classmethod
    def _from_trusted(cls, start: float, step: float, node_ids: Sequence[str],
                      matrix: np.ndarray) -> "FleetUtilization":
        """Construct without re-validation from a matrix correct by construction.

        Only for engine-internal callers that already guarantee the
        invariants the public constructor checks (finite values clipped to
        [0, 1], unique node ids, one row per node).
        """
        obj = cls.__new__(cls)
        obj._start = float(start)
        obj._step = float(step)
        obj._node_ids = list(node_ids)
        obj._matrix = matrix
        obj._row_index = {nid: row for row, nid in enumerate(obj._node_ids)}
        return obj

    @classmethod
    def from_trace(cls, trace: UtilizationTrace) -> "FleetUtilization":
        """Promote a plain trace to a fleet view (shares no mutable state)."""
        if isinstance(trace, cls):
            return trace
        return cls(trace.start, trace.step, trace.node_ids, trace.matrix)

    # -- O(1) per-node access --------------------------------------------------------

    def row_of(self, node_id: str) -> int:
        """The matrix row holding ``node_id``'s utilisation."""
        try:
            return self._row_index[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r} in trace") from None

    def node_view(self, node_id: str) -> np.ndarray:
        """A read-only, zero-copy view of one node's utilisation row."""
        view = self._matrix[self.row_of(node_id)].view()
        view.flags.writeable = False
        return view

    def per_node_views(self) -> Mapping[str, np.ndarray]:
        """The old dict-of-per-node shape, as thin row views (no copies)."""
        return {node_id: self.node_view(node_id) for node_id in self._node_ids}

    def node_series(self, node_id: str) -> TimeSeries:
        """The utilisation series of one node (O(1) id lookup)."""
        return TimeSeries(self._start, self._step,
                          self._matrix[self.row_of(node_id)])

    def subset(self, node_ids: Sequence[str]) -> "FleetUtilization":
        """A fleet restricted to the given nodes (O(1) per-id lookup)."""
        rows = [self.row_of(node_id) for node_id in node_ids]
        return FleetUtilization(self._start, self._step, list(node_ids),
                                self._matrix[rows])

    # -- fleet-level aggregates -----------------------------------------------------

    def busy_core_seconds(self, node_cores: Sequence[int]) -> float:
        """Total effective core-seconds delivered across the fleet."""
        cores = np.asarray(node_cores, dtype=np.float64)
        if cores.shape != (self.node_count,):
            raise ValueError("node_cores must have one entry per node")
        return float((self._matrix.sum(axis=1) * cores).sum() * self._step)


def _atomic_save_array(path: Path, array: np.ndarray) -> None:
    """``np.save`` with the persist-layer's temp-file + rename discipline."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npy.tmp")
    os.close(fd)
    try:
        with open(tmp, "wb") as handle:
            np.save(handle, array)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _shard_bounds(n_nodes: int, shard_nodes: int) -> List[Tuple[int, int]]:
    """The ``[lo, hi)`` node ranges of each shard."""
    return [(lo, min(lo + shard_nodes, n_nodes))
            for lo in range(0, n_nodes, shard_nodes)]


class ShardedFleetUtilization:
    """A fleet's utilisation as node-axis shards on disk, never all in RAM.

    Mirrors the read surface of :class:`FleetUtilization` that the power
    layer and the snapshot experiment actually consume (``node_ids``,
    ``mean_per_node``, ``mean_utilization``, ``node_series``, the grid
    accessors) but holds no matrix: every access streams the relevant
    shard(s) through a read-only memmap.  Use
    :meth:`ShardedFleetUtilization.from_placements` to build a
    shard directory and :meth:`ShardedFleetUtilization.open` to re-open an
    existing one.

    Each shard file holds a float64 ``(shard_nodes, n_samples)`` block:
    rows are nodes, exactly as in the dense matrix.
    """

    __slots__ = ("_directory", "_start", "_step", "_node_ids", "_n_samples",
                 "_shard_nodes", "_bounds", "_files", "_row_index")

    def __init__(self, directory: Union[str, Path], manifest: Dict[str, object]):
        self._directory = Path(directory)
        if manifest.get("version") != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"shard directory {self._directory} has format version "
                f"{manifest.get('version')!r}, expected {SHARD_FORMAT_VERSION}")
        self._start = float(manifest["start"])
        self._step = float(manifest["step"])
        self._node_ids: List[str] = list(manifest["node_ids"])
        self._n_samples = int(manifest["n_samples"])
        self._shard_nodes = int(manifest["shard_nodes"])
        if self._step <= 0 or self._n_samples <= 0 or self._shard_nodes <= 0:
            raise ValueError("shard manifest geometry must be positive")
        self._bounds = _shard_bounds(len(self._node_ids), self._shard_nodes)
        self._files = [self._directory / str(name)
                       for name in manifest["shards"]]
        if len(self._files) != len(self._bounds):
            raise ValueError("shard manifest lists the wrong shard count")
        self._row_index = {nid: row for row, nid in enumerate(self._node_ids)}

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_placements(
        cls,
        placements: Sequence["Placement"],
        node_ids: Sequence[str],
        node_cores: Sequence[int],
        duration_s: float,
        directory: Union[str, Path],
        step_s: float = 60.0,
        start_s: float = 0.0,
        shard_nodes: int = 4096,
    ) -> "ShardedFleetUtilization":
        """Build the shard directory from placements, one shard in RAM at a time.

        Each shard's sub-matrix is produced by the same vectorised
        interval-overlap math as the dense builder, restricted to the
        shard's node range, then written atomically as one ``.npy`` file.
        Peak memory is O(shard_nodes × n_samples), independent of fleet
        size.  The caller owns ``directory`` and its lifetime.
        """
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        n_samples = int(round(duration_s / step_s))
        if n_samples <= 0:
            raise ValueError("duration_s must cover at least one sample")
        if shard_nodes < 1:
            raise ValueError("shard_nodes must be at least 1")
        n_nodes = len(node_ids)
        cores = np.asarray(node_cores, dtype=np.float64)
        if cores.shape != (n_nodes,):
            raise ValueError("node_cores must have one entry per node id")
        if (cores <= 0).any():
            raise ValueError("node core counts must be positive")

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)

        node_idx, t0, t1, weight = _placement_arrays(
            placements, n_nodes, duration_s, start_s)
        bounds = _shard_bounds(n_nodes, shard_nodes)
        # Placements sorted by node give each shard one contiguous slice.
        order = np.argsort(node_idx, kind="stable")
        node_idx, t0, t1, weight = (a[order] for a in (node_idx, t0, t1, weight))
        splits = np.searchsorted(node_idx, [lo for lo, _ in bounds] +
                                 [n_nodes], side="left")
        shard_files = []
        for index, (lo, hi) in enumerate(bounds):
            sel = slice(splits[index], splits[index + 1])
            block = _accumulate_matrix(
                (node_idx[sel] - lo, t0[sel], t1[sel], weight[sel]),
                hi - lo, n_samples, step_s, start_s, cores[lo:hi])
            name = f"shard_{index:05d}.npy"
            _atomic_save_array(directory / name, block)
            shard_files.append(name)
            del block

        manifest = {
            "version": SHARD_FORMAT_VERSION,
            "start": start_s,
            "step": step_s,
            "n_samples": n_samples,
            "shard_nodes": shard_nodes,
            "node_ids": list(node_ids),
            "shards": shard_files,
        }
        manifest_path = directory / SHARD_MANIFEST_NAME
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".json.tmp")
        os.close(fd)
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)
            os.replace(tmp, manifest_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return cls(directory, manifest)

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "ShardedFleetUtilization":
        """Open an existing shard directory (raises on skew/corruption)."""
        directory = Path(directory)
        with open(directory / SHARD_MANIFEST_NAME, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        return cls(directory, manifest)

    # -- grid / identity accessors ----------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def start(self) -> float:
        return self._start

    @property
    def step(self) -> float:
        return self._step

    @property
    def node_ids(self) -> List[str]:
        return list(self._node_ids)

    @property
    def node_count(self) -> int:
        return len(self._node_ids)

    @property
    def sample_count(self) -> int:
        return self._n_samples

    @property
    def duration_s(self) -> float:
        return self._step * self._n_samples

    @property
    def shard_nodes(self) -> int:
        return self._shard_nodes

    @property
    def shard_count(self) -> int:
        return len(self._bounds)

    # -- shard access -----------------------------------------------------------------

    def shard_bounds(self, index: int) -> Tuple[int, int]:
        """The ``[lo, hi)`` node range of one shard."""
        return self._bounds[index]

    def shard_array(self, index: int) -> np.ndarray:
        """One shard as a read-only ``(hi - lo, n_samples)`` memmap."""
        return np.load(self._files[index], mmap_mode="r")

    def iter_shards(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(lo, hi, shard_array)`` for every shard, in node order."""
        for index, (lo, hi) in enumerate(self._bounds):
            yield lo, hi, self.shard_array(index)

    # -- streaming reductions ----------------------------------------------------------

    def mean_per_node(self) -> np.ndarray:
        """Time-averaged utilisation of each node (float64, streamed)."""
        out = np.empty(self.node_count, dtype=np.float64)
        for lo, hi, shard in self.iter_shards():
            out[lo:hi] = shard.mean(axis=1)
        return out

    def mean_utilization(self) -> float:
        """Overall space-time average utilisation."""
        total = 0.0
        for _, _, shard in self.iter_shards():
            total += float(shard.sum())
        return total / (self.node_count * self._n_samples)

    def busy_core_seconds(self, node_cores: Sequence[int]) -> float:
        """Total effective core-seconds delivered across the fleet."""
        cores = np.asarray(node_cores, dtype=np.float64)
        if cores.shape != (self.node_count,):
            raise ValueError("node_cores must have one entry per node")
        total = 0.0
        for lo, hi, shard in self.iter_shards():
            total += float(shard.sum(axis=1) @ cores[lo:hi])
        return total * self._step

    def row_of(self, node_id: str) -> int:
        """The fleet-wide row index of ``node_id``."""
        try:
            return self._row_index[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r} in trace") from None

    def node_series(self, node_id: str) -> TimeSeries:
        """One node's utilisation series (reads one shard row)."""
        row = self.row_of(node_id)
        shard = row // self._shard_nodes
        local = row - self._bounds[shard][0]
        return TimeSeries(self._start, self._step,
                          np.asarray(self.shard_array(shard)[local]))

    def to_dense(self) -> FleetUtilization:
        """Materialise the whole fleet as a dense :class:`FleetUtilization`.

        For cross-validation at small scale only — this allocates the full
        matrix the sharded representation exists to avoid.
        """
        matrix = np.empty((self.node_count, self._n_samples), dtype=np.float64)
        for lo, hi, shard in self.iter_shards():
            matrix[lo:hi] = shard
        return FleetUtilization(self._start, self._step, self._node_ids, matrix)


__all__ = [
    "FleetUtilization",
    "ShardedFleetUtilization",
    "SHARD_FORMAT_VERSION",
]
