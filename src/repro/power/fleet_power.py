"""Vectorised fleet-wide power conversion.

A :class:`FleetPowerModel` holds the per-node power curves of a whole site
in columnar (affine-coefficient) form and maps a full
``(n_nodes, n_samples)`` utilisation matrix to the three measurement-scope
power matrices (RAPL, DC, wall) in one broadcasting pass per scope — no
per-node Python loop, no repeated re-evaluation of shared sub-expressions.

Every component curve of :class:`~repro.power.node_power.NodePowerModel`
is affine in utilisation (``power = a + b * u``), so each scope collapses
to a single per-node intercept/slope pair computed once at construction:

==========  =============================  =============================
component   intercept ``a`` (W)            slope ``b`` (W per unit u)
==========  =============================  =============================
CPU         ``tdp * idle_fraction``        ``tdp * (1 - idle_fraction)``
DRAM        ``full * idle_fraction``       ``full * (1 - idle_fraction)``
storage     ``idle``                       ``active - idle``
platform    ``base + nic``                 0
GPU         ``tdp * 0.1``                  ``tdp * 0.9``
==========  =============================  =============================

``rapl = cpu + dram``, ``dc`` adds storage/platform/GPU, and ``wall``
divides the dc coefficients by the PSU efficiency.  The evaluation agrees
with the per-node oracle (``tests/oracles/power.py``) to within a few
float64 ulp (the factored coefficients round differently at
the ~1e-16 relative level); the fleet-engine benchmark pins the agreement
at ≤1e-9 relative.

Because the slopes are non-negative, utilisation lies in [0, 1], storage
idle power never exceeds active power, and PSU efficiency lies in
(0.5, 1.0] (all enforced by the inventory specs), the resulting matrices
satisfy ``0 <= rapl <= dc <= wall`` *by construction* — which is what lets
:meth:`~repro.power.traces.PowerBreakdownTrace.from_utilization` skip the
re-validation the generic constructor performs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.power.node_power import NodePowerModel
from repro.timeseries.series import TimeSeries
from repro.units.constants import JOULES_PER_KWH
from repro.workload.fleet import ShardedFleetUtilization

_SCOPES = ("rapl", "dc", "wall")


def weighted_row_sum(weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``weights @ matrix`` for a ``(n_nodes, n_samples)`` matrix, without BLAS.

    One sequential, single-threaded pass over the rows.  The reduction is
    memory-bound, so a threaded BLAS ``gemv`` gains nothing here; on a
    small or shared host its idle worker threads spin and take CPU from
    the caller (measured 6-10x slower than this pass on 2 cores).
    """
    return np.einsum("i,ij->j", weights, matrix)


def coverage_vector(covered_rows: Optional[np.ndarray],
                    node_count: int) -> Optional[np.ndarray]:
    """Per-node multiplicity of the covered rows, or ``None`` for all nodes.

    Accepts an index array (duplicates count multiply, matching fancy row
    indexing) or a boolean mask over the nodes.  Shared by the dense
    :class:`~repro.power.traces.PowerBreakdownTrace` and the sharded trace
    below, so both paths agree exactly on what an instrument's coverage
    means.
    """
    if covered_rows is None:
        return None
    rows = np.asarray(covered_rows)
    if rows.dtype == np.bool_:
        if rows.shape != (node_count,):
            raise ValueError(
                f"boolean coverage mask must have shape "
                f"({node_count},), got {rows.shape}")
        rows = np.nonzero(rows)[0]
    elif rows.size and (rows.min() < 0 or rows.max() >= node_count):
        raise IndexError(
            f"covered row indices must lie in [0, {node_count})")
    if (rows.size == node_count
            and np.array_equal(rows, np.arange(node_count))):
        return None
    coverage = np.zeros(node_count, dtype=np.float64)
    np.add.at(coverage, rows, 1.0)
    return coverage


class FleetPowerModel:
    """Per-node power curves for a whole fleet, evaluated columnar-ly.

    Parameters
    ----------
    models:
        One :class:`NodePowerModel` per node, ordered like the rows of the
        utilisation matrices this model will be applied to.
    """

    __slots__ = ("_n", "_rapl_a", "_rapl_b", "_dc_a", "_dc_b",
                 "_wall_a", "_wall_b")

    def __init__(self, models: Sequence[NodePowerModel]):
        if not models:
            raise ValueError("a fleet power model needs at least one node model")
        self._n = len(models)
        # A site has a handful of distinct node models repeated across
        # thousands of rows: evaluate each distinct one once, then expand.
        # Specs are frozen, so a spec's identity fixes its power figures.
        distinct: Dict[tuple, int] = {}
        unique: List[NodePowerModel] = []
        rows = np.empty(self._n, dtype=np.intp)
        for index, m in enumerate(models):
            key = (id(m.spec), m.cpu_idle_fraction, m.dram_idle_fraction)
            slot = distinct.get(key)
            if slot is None:
                slot = distinct[key] = len(unique)
                unique.append(m)
            rows[index] = slot

        def column(values) -> np.ndarray:
            return np.array(values, dtype=np.float64)[rows].reshape(self._n, 1)

        cpu_a = column([m.spec.cpu_tdp_w * m.cpu_idle_fraction for m in unique])
        cpu_b = column([m.spec.cpu_tdp_w * (1.0 - m.cpu_idle_fraction)
                        for m in unique])
        dram_a = column([m.spec.memory_power_w * m.dram_idle_fraction
                         for m in unique])
        dram_b = column([m.spec.memory_power_w * (1.0 - m.dram_idle_fraction)
                         for m in unique])
        sto_a = column([m.spec.storage_idle_power_w for m in unique])
        sto_b = column([m.spec.storage_active_power_w
                        - m.spec.storage_idle_power_w for m in unique])
        plat_a = column([m.spec.base_power_w + m.spec.nic_power_w
                         for m in unique])
        gpu_a = column([m.spec.gpu_tdp_w * 0.1 for m in unique])
        gpu_b = column([m.spec.gpu_tdp_w * 0.9 for m in unique])
        psu = column([m.spec.psu_efficiency for m in unique])

        self._rapl_a = cpu_a + dram_a
        self._rapl_b = cpu_b + dram_b
        self._dc_a = self._rapl_a + sto_a + plat_a + gpu_a
        self._dc_b = self._rapl_b + sto_b + gpu_b
        self._wall_a = self._dc_a / psu
        self._wall_b = self._dc_b / psu

    @property
    def node_count(self) -> int:
        return self._n

    def affine(self, scope: str) -> Tuple[np.ndarray, np.ndarray]:
        """The per-node ``(intercept, slope)`` columns of a named scope."""
        try:
            return {
                "rapl": (self._rapl_a, self._rapl_b),
                "dc": (self._dc_a, self._dc_b),
                "wall": (self._wall_a, self._wall_b),
            }[scope]
        except KeyError:
            raise ValueError(
                f"unknown scope {scope!r}; expected rapl, dc or wall") from None

    def _check(self, utilization: np.ndarray) -> np.ndarray:
        u = np.asarray(utilization, dtype=np.float64)
        if u.ndim != 2 or u.shape[0] != self._n:
            raise ValueError(
                f"utilisation matrix must have shape ({self._n}, n_samples), "
                f"got {u.shape}")
        return u

    @staticmethod
    def _affine(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.multiply(b, u)
        out += a
        return out

    def scope_matrices(
        self, utilization: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rapl_w, dc_w, wall_w)`` for the whole fleet, two passes each."""
        u = self._check(utilization)
        return (
            self._affine(self._rapl_a, self._rapl_b, u),
            self._affine(self._dc_a, self._dc_b, u),
            self._affine(self._wall_a, self._wall_b, u),
        )

    def rapl_w(self, utilization: np.ndarray) -> np.ndarray:
        """RAPL-visible (CPU package + DRAM) power matrix."""
        u = self._check(utilization)
        return self._affine(self._rapl_a, self._rapl_b, u)

    def dc_w(self, utilization: np.ndarray) -> np.ndarray:
        """Total DC-side power matrix."""
        u = self._check(utilization)
        return self._affine(self._dc_a, self._dc_b, u)

    def wall_w(self, utilization: np.ndarray) -> np.ndarray:
        """AC (wall) power matrix."""
        u = self._check(utilization)
        return self._affine(self._wall_a, self._wall_b, u)

    def idle_wall_power_w(self) -> np.ndarray:
        """Each node's wall power at zero utilisation, shape ``(n_nodes,)``."""
        return self._wall_a[:, 0].copy()

    def max_wall_power_w(self) -> np.ndarray:
        """Each node's wall power at full utilisation, shape ``(n_nodes,)``."""
        return (self._wall_a + self._wall_b)[:, 0]


class ShardedPowerBreakdownTrace:
    """Scope-resolved power over a sharded fleet, contracted shard by shard.

    The out-of-core sibling of
    :meth:`~repro.power.traces.PowerBreakdownTrace.from_utilization`: it
    pairs a :class:`~repro.workload.fleet.ShardedFleetUtilization` with a
    :class:`FleetPowerModel` and evaluates every reduction the instruments
    consume — covered-site series, total series, per-node energies — as a
    streaming contraction ``sum_i c_i (a_i + b_i u_i(t))`` over one shard's
    memmap at a time.  No power matrix (and no dense utilisation matrix)
    ever exists in memory; peak footprint is one shard.  The sums run in
    a different order from the dense trace's, so the two agree to ≤1e-9
    relative, not bit for bit.
    """

    __slots__ = ("_store", "_model", "_series_cache")

    def __init__(self, store: ShardedFleetUtilization,
                 models: Sequence[NodePowerModel]):
        if len(models) != store.node_count:
            raise ValueError(
                f"need one power model per node: {store.node_count} nodes, "
                f"{len(models)} models")
        self._store = store
        self._model = FleetPowerModel(models)
        self._series_cache: Dict[tuple, np.ndarray] = {}

    # -- grid accessors (mirroring PowerBreakdownTrace) --------------------------------

    @property
    def store(self) -> ShardedFleetUtilization:
        """The underlying shard store (read-only access for diagnostics)."""
        return self._store

    @property
    def start(self) -> float:
        return self._store.start

    @property
    def step(self) -> float:
        return self._store.step

    @property
    def node_ids(self) -> List[str]:
        return self._store.node_ids

    @property
    def node_count(self) -> int:
        return self._store.node_count

    @property
    def sample_count(self) -> int:
        return self._store.sample_count

    @property
    def duration_s(self) -> float:
        return self._store.duration_s

    def _check_scope(self, scope: str) -> None:
        if scope not in _SCOPES:
            raise ValueError(
                f"unknown scope {scope!r}; expected rapl, dc or wall")

    # -- streaming reductions ----------------------------------------------------------

    def _covered_values(self, scope: str,
                        covered_rows: Optional[np.ndarray]) -> np.ndarray:
        """Summed power over the covered nodes, one value per sample."""
        self._check_scope(scope)
        coverage = coverage_vector(covered_rows, self.node_count)
        key = (scope, None if coverage is None else coverage.tobytes())
        cached = self._series_cache.get(key)
        if cached is not None:
            return cached
        a, b = self._model.affine(scope)
        slope = b[:, 0] if coverage is None else coverage * b[:, 0]
        values = np.zeros(self.sample_count, dtype=np.float64)
        for lo, hi, shard in self._store.iter_shards():
            values += weighted_row_sum(slope[lo:hi], shard)
        if coverage is None:
            values += a.sum()
        else:
            values += coverage @ a[:, 0]
        self._series_cache[key] = values
        return values

    def covered_series(self, scope: str = "wall",
                       covered_rows: Optional[np.ndarray] = None) -> TimeSeries:
        """Summed power of the covered nodes over time (all nodes by default)."""
        return TimeSeries(self.start, self.step,
                          self._covered_values(scope, covered_rows))

    def total_series(self, scope: str = "wall") -> TimeSeries:
        """Site-total power over time for the given scope."""
        return self.covered_series(scope, None)

    def node_series(self, node_id: str, scope: str = "wall") -> TimeSeries:
        """One node's power over time (reads one shard row)."""
        self._check_scope(scope)
        row = self._store.row_of(node_id)
        a, b = self._model.affine(scope)
        util = self._store.node_series(node_id).values
        return TimeSeries(self.start, self.step,
                          a[row, 0] + b[row, 0] * util)

    # -- aggregates ------------------------------------------------------------------

    def total_energy_kwh(self, scope: str = "wall") -> float:
        """True total energy in kWh for the given scope (no instrument effects)."""
        values = self._covered_values(scope, None)
        return float(values.sum() * self.step / JOULES_PER_KWH)

    def per_node_energy_kwh(self, scope: str = "wall") -> Dict[str, float]:
        """True per-node energy in kWh for the given scope (streamed)."""
        self._check_scope(scope)
        a, b = self._model.affine(scope)
        row_sums = np.empty(self.node_count, dtype=np.float64)
        for lo, hi, shard in self._store.iter_shards():
            row_sums[lo:hi] = shard.sum(axis=1)
        energies = a[:, 0] * self.sample_count + b[:, 0] * row_sums
        energies *= self.step / JOULES_PER_KWH
        return dict(zip(self._store.node_ids, energies.tolist()))

    def mean_node_power_w(self, scope: str = "wall") -> float:
        """Average per-node power across the whole trace."""
        values = self._covered_values(scope, None)
        return float(values.sum() / (self.node_count * self.sample_count))


__all__ = ["FleetPowerModel", "ShardedPowerBreakdownTrace", "coverage_vector",
           "weighted_row_sum"]
