"""Quantile-native ensemble results.

An :class:`EnsembleResult` keeps the full joint sample of the carbon
metrics (active, embodied, total) rather than a fixed summary, so callers
ask distributional questions directly: arbitrary quantiles, exceedance and
crossover probabilities (``P(embodied > active)`` — the balance the
paper's summary discusses qualitatively), and flat rows for the table /
JSON / CSV renderers in :mod:`repro.reporting.uncertainty`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.io.csvio import write_rows_csv
from repro.io.jsonio import PathLike, write_json

from repro.uncertainty.sampling import SampleMatrix
from repro.uncertainty.spec import UncertainSpec

#: The default percentile band (5/25/50/75/95) reported everywhere.
DEFAULT_PROBS: Tuple[float, ...] = (0.05, 0.25, 0.50, 0.75, 0.95)

#: The carbon metrics an ensemble distributes.
METRICS: Tuple[str, ...] = ("active_kg", "embodied_kg", "total_kg",
                            "embodied_fraction")


def quantile_label(prob: float) -> str:
    """``0.05 -> "p05"``, ``0.5 -> "p50"``, ``0.975 -> "p97.5"``."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("a quantile probability must be in [0, 1]")
    percent = 100.0 * prob
    if abs(percent - round(percent)) < 1e-9:
        return f"p{int(round(percent)):02d}"
    return f"p{percent:g}"


@dataclass(frozen=True)
class EnsembleResult:
    """The joint outcome distribution of one ensemble run.

    Attributes
    ----------
    spec:
        The uncertain spec that was run (base spec + distributions).
    samples:
        The drawn input sample matrix (one column per distributed field).
    active_kg / embodied_kg / total_kg:
        Per-sample outcomes, aligned with the sample matrix rows.
    seed:
        The ensemble seed (the run is a pure function of spec, n, seed).
    method:
        The path the runner took: ``"vectorized"`` (columnar analysis
        pass) or ``"oracle"`` (per-sample Assessment loop).
    """

    spec: UncertainSpec
    samples: SampleMatrix
    active_kg: np.ndarray
    embodied_kg: np.ndarray
    total_kg: np.ndarray
    seed: int
    method: str

    def __post_init__(self):
        n = self.samples.n_samples
        for name in ("active_kg", "embodied_kg", "total_kg"):
            array = np.asarray(getattr(self, name), dtype=np.float64)
            if array.shape != (n,):
                raise ValueError(
                    f"{name} must have shape ({n},), got {array.shape}")
            object.__setattr__(self, name, array)

    # -- basic views ---------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self.samples.n_samples

    @property
    def fields(self) -> Tuple[str, ...]:
        """The distributed input fields, in sampling order."""
        return self.samples.fields

    @property
    def embodied_fraction(self) -> np.ndarray:
        """Per-sample embodied share of the total."""
        return self.embodied_kg / self.total_kg

    def metric(self, name: str) -> np.ndarray:
        """One of :data:`METRICS` as the per-sample array."""
        if name not in METRICS:
            raise KeyError(
                f"unknown metric {name!r}; expected one of {', '.join(METRICS)}")
        return getattr(self, name) if name != "embodied_fraction" \
            else self.embodied_fraction

    # -- quantiles -----------------------------------------------------------------

    def quantile(self, prob, metric: str = "total_kg"):
        """The ``prob`` quantile (scalar or array of probabilities)."""
        values = np.quantile(self.metric(metric), prob)
        return float(values) if np.ndim(values) == 0 else values

    def quantiles(
        self, metric: str = "total_kg",
        probs: Sequence[float] = DEFAULT_PROBS,
    ) -> Dict[str, float]:
        """Labelled quantiles, e.g. ``{"p05": ..., "p25": ..., ...}``."""
        values = np.quantile(self.metric(metric), list(probs))
        return {quantile_label(p): float(v) for p, v in zip(probs, values)}

    def mean(self, metric: str = "total_kg") -> float:
        return float(self.metric(metric).mean())

    def std(self, metric: str = "total_kg") -> float:
        return float(self.metric(metric).std())

    # -- probabilities -------------------------------------------------------------

    @property
    def probability_embodied_exceeds_active(self) -> float:
        """P(embodied > active): the crossover the paper anticipates."""
        return float((self.embodied_kg > self.active_kg).mean())

    def exceedance_probability(
        self, threshold: float, metric: str = "total_kg",
    ) -> float:
        """P(metric > threshold) under the input distributions."""
        return float((self.metric(metric) > threshold).mean())

    # -- flat rows and serialisation -----------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """One flat row of the ensemble configuration and headline stats."""
        row: Dict[str, Any] = {
            "samples": self.n_samples,
            "seed": self.seed,
            "method": self.method,
            "fields": ",".join(self.fields),
            "total_kg_mean": self.mean("total_kg"),
            "total_kg_std": self.std("total_kg"),
            "active_kg_mean": self.mean("active_kg"),
            "embodied_kg_mean": self.mean("embodied_kg"),
            "embodied_fraction_mean": self.mean("embodied_fraction"),
            "probability_embodied_exceeds_active":
                self.probability_embodied_exceeds_active,
        }
        for label, value in self.quantiles("total_kg").items():
            row[f"total_kg_{label}"] = value
        return row

    def quantile_rows(
        self, probs: Sequence[float] = DEFAULT_PROBS,
    ) -> List[Dict[str, Any]]:
        """One row per quantile across every metric (the CSV/table form)."""
        rows = []
        per_metric = {
            metric: np.quantile(self.metric(metric), list(probs))
            for metric in METRICS
        }
        for index, prob in enumerate(probs):
            row: Dict[str, Any] = {"quantile": quantile_label(prob),
                                   "probability": float(prob)}
            for metric in METRICS:
                row[metric] = float(per_metric[metric][index])
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, Any]:
        """The result as a JSON-serialisable dictionary (no raw samples)."""
        return {
            "spec": self.spec.to_dict(),
            "summary": self.summary(),
            "quantiles": {
                metric: self.quantiles(metric) for metric in METRICS
            },
        }

    def to_json(self, path: PathLike) -> None:
        write_json(path, self.as_dict())

    def to_csv(self, path: PathLike) -> None:
        write_rows_csv(path, self.quantile_rows())


__all__ = ["DEFAULT_PROBS", "METRICS", "EnsembleResult", "quantile_label"]
