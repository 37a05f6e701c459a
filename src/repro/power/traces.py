"""Per-node power traces with a component breakdown.

A :class:`PowerBreakdownTrace` exposes, on a single regular sampling grid,
one matrix per measurement scope:

* ``rapl_w`` — CPU package + DRAM (what Turbostat sees);
* ``dc_w`` — all node components on the DC side;
* ``wall_w`` — node input (AC) power, i.e. DC plus PSU losses (what IPMI
  and, with distribution losses added, PDUs see).

It is produced from a :class:`~repro.workload.utilization.UtilizationTrace`
and a per-node :class:`~repro.power.node_power.NodePowerModel`, and consumed
by the measurement instruments.

Internally the trace has two representations:

**columnar/lazy** (:meth:`from_utilization`, the engine default) — the
utilisation matrix plus a :class:`~repro.power.fleet_power.FleetPowerModel`
holding per-node affine coefficients.  Because every instrument ultimately
*reduces* the fleet matrix (a site series over covered nodes, a total
energy, per-node energies), the reductions are evaluated directly from the
coefficients — ``sum_i c_i (a_i + b_i u_i(t))`` is one vector contraction
against the utilisation matrix — and a full per-scope power matrix is only
materialised if :meth:`scope_matrix` is explicitly asked for it.

**materialised** (the public constructor) — three explicit power
matrices, validated for shape, sign and scope ordering.  The per-node
conversion that builds one (kept as the oracle in
``tests/oracles/power.py``) cross-validates the lazy engine in the
fleet-engine benchmark and equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.power.fleet_power import FleetPowerModel, coverage_vector
from repro.power.node_power import NodePowerModel
from repro.timeseries.series import TimeSeries
from repro.units.constants import JOULES_PER_KWH
from repro.workload.utilization import UtilizationTrace

_SCOPES = ("rapl", "dc", "wall")


class PowerBreakdownTrace:
    """Scope-resolved power traces for a set of nodes on one sampling grid."""

    __slots__ = ("_start", "_step", "_node_ids", "_matrices", "_util",
                 "_model", "_series_cache")

    def __init__(
        self,
        start: float,
        step: float,
        node_ids: Sequence[str],
        rapl_w: np.ndarray,
        dc_w: np.ndarray,
        wall_w: np.ndarray,
    ):
        rapl_w = np.asarray(rapl_w, dtype=np.float64)
        dc_w = np.asarray(dc_w, dtype=np.float64)
        wall_w = np.asarray(wall_w, dtype=np.float64)
        expected = (len(node_ids), rapl_w.shape[1] if rapl_w.ndim == 2 else -1)
        for name, matrix in (("rapl_w", rapl_w), ("dc_w", dc_w), ("wall_w", wall_w)):
            if matrix.ndim != 2 or matrix.shape != expected:
                raise ValueError(f"{name} must have shape {expected}, got {matrix.shape}")
            if (matrix < 0).any():
                raise ValueError(f"{name} must be non-negative")
        if step <= 0:
            raise ValueError("step must be positive")
        if not (rapl_w <= dc_w + 1e-9).all():
            raise ValueError("RAPL-visible power cannot exceed DC power")
        if not (dc_w <= wall_w + 1e-9).all():
            raise ValueError("DC power cannot exceed wall power")
        self._start = float(start)
        self._step = float(step)
        self._node_ids = list(node_ids)
        self._matrices: Dict[str, np.ndarray] = {
            "rapl": rapl_w, "dc": dc_w, "wall": wall_w,
        }
        self._util: Optional[np.ndarray] = None
        self._model: Optional[FleetPowerModel] = None
        self._series_cache: Dict[tuple, np.ndarray] = {}

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_utilization(
        cls,
        trace: UtilizationTrace,
        models: Sequence[NodePowerModel],
    ) -> "PowerBreakdownTrace":
        """Convert a utilisation trace to power using one model per node.

        ``models`` must be ordered like ``trace.node_ids``; pass a list with
        a single repeated model (``[model] * n``) for homogeneous sites.

        This is the columnar engine: the fleet's affine power coefficients
        are computed once and reductions (site series, energies) evaluate
        straight off the utilisation matrix; per-scope power matrices are
        materialised only on explicit :meth:`scope_matrix` access.  Agrees
        with a per-node evaluation of each model to within a few float64
        ulp.
        """
        if len(models) != trace.node_count:
            raise ValueError(
                f"need one power model per node: {trace.node_count} nodes, "
                f"{len(models)} models"
            )
        obj = cls.__new__(cls)
        obj._start = trace.start
        obj._step = trace.step
        obj._node_ids = trace.node_ids
        obj._matrices = {}
        obj._util = trace.matrix
        obj._model = FleetPowerModel(models)
        obj._series_cache = {}
        return obj

    # -- accessors -------------------------------------------------------------------

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
        if self._util is not None:
            return int(self._util.shape[1])
        return int(self._matrices["wall"].shape[1])

    @property
    def duration_s(self) -> float:
        return self._step * self.sample_count

    def _check_scope(self, scope: str) -> None:
        if scope not in _SCOPES:
            raise ValueError(
                f"unknown scope {scope!r}; expected rapl, dc or wall")

    def scope_matrix(self, scope: str) -> np.ndarray:
        """The power matrix for a named scope (``rapl``, ``dc`` or ``wall``).

        On a columnar trace the matrix is materialised (and kept) on first
        access; the reduction helpers below never need it.
        """
        self._check_scope(scope)
        matrix = self._matrices.get(scope)
        if matrix is None:  # columnar representation: materialise on demand
            a, b = self._model.affine(scope)
            matrix = np.multiply(b, self._util)
            matrix += a
            self._matrices[scope] = matrix
        view = matrix.view()
        view.flags.writeable = False
        return view

    # -- reductions (the instruments' fast path) -------------------------------------

    def _coverage_vector(
        self, covered_rows: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Per-node multiplicity of the covered rows, or ``None`` for all.

        Accepts an index array (duplicates count multiply, matching fancy
        row indexing) or a boolean mask over the nodes.  Delegates to the
        shared :func:`~repro.power.fleet_power.coverage_vector`, which the
        sharded trace uses too.
        """
        return coverage_vector(covered_rows, self.node_count)

    def _covered_values(self, scope: str,
                        covered_rows: Optional[np.ndarray]) -> np.ndarray:
        """Summed power over the covered nodes, one value per sample."""
        self._check_scope(scope)
        coverage = self._coverage_vector(covered_rows)
        key = (scope, None if coverage is None else coverage.tobytes())
        cached = self._series_cache.get(key)
        if cached is not None:
            return cached
        if self._util is not None and scope not in self._matrices:
            # Columnar: sum_i c_i (a_i + b_i u_i(t)) without materialising.
            a, b = self._model.affine(scope)
            if coverage is None:
                values = b[:, 0] @ self._util + a.sum()
            else:
                values = (coverage * b[:, 0]) @ self._util + coverage @ a[:, 0]
        else:
            matrix = self.scope_matrix(scope)
            if coverage is None:
                values = matrix.sum(axis=0)
            else:
                values = coverage @ matrix
        self._series_cache[key] = values
        return values

    def covered_series(self, scope: str = "wall",
                       covered_rows: Optional[np.ndarray] = None) -> TimeSeries:
        """Summed power of the covered nodes over time (all nodes by default)."""
        return TimeSeries(self._start, self._step,
                          self._covered_values(scope, covered_rows))

    def total_series(self, scope: str = "wall") -> TimeSeries:
        """Site-total power over time for the given scope."""
        return self.covered_series(scope, None)

    def node_series(self, node_id: str, scope: str = "wall") -> TimeSeries:
        """One node's power over time for the given scope."""
        try:
            row = self._node_ids.index(node_id)
        except ValueError:
            raise KeyError(f"no node {node_id!r} in power trace") from None
        self._check_scope(scope)
        if self._util is not None and scope not in self._matrices:
            a, b = self._model.affine(scope)
            return TimeSeries(self._start, self._step,
                              a[row, 0] + b[row, 0] * self._util[row])
        return TimeSeries(self._start, self._step, self.scope_matrix(scope)[row])

    # -- aggregates ------------------------------------------------------------------

    def total_energy_kwh(self, scope: str = "wall") -> float:
        """True total energy in kWh for the given scope (no instrument effects)."""
        values = self._covered_values(scope, None)
        return float(values.sum() * self._step / JOULES_PER_KWH)

    def per_node_energy_kwh(self, scope: str = "wall") -> Dict[str, float]:
        """True per-node energy in kWh for the given scope."""
        self._check_scope(scope)
        if self._util is not None and scope not in self._matrices:
            a, b = self._model.affine(scope)
            energies = (a[:, 0] * self.sample_count
                        + b[:, 0] * self._util.sum(axis=1))
            energies *= self._step / JOULES_PER_KWH
        else:
            matrix = self.scope_matrix(scope)
            energies = matrix.sum(axis=1) * self._step / JOULES_PER_KWH
        return dict(zip(self._node_ids, energies.tolist()))

    def mean_node_power_w(self, scope: str = "wall") -> float:
        """Average per-node power across the whole trace."""
        values = self._covered_values(scope, None)
        return float(values.sum() / (self.node_count * self.sample_count))


__all__ = ["PowerBreakdownTrace"]
