"""The paper's closed-form Monte-Carlo envelope over equation 1.

:class:`UncertainInput` describes the paper's input envelope (intensity,
PUE, per-server embodied carbon, lifetime) as registry distributions
(:mod:`repro.uncertainty.distributions`); :func:`closed_form_draws`
samples the closed-form carbon arithmetic from it with the historical
draw order, and :func:`summarise_closed_form` reduces the draws to the
historical percentile summary.  ``repro uncertainty``'s paper mode runs
on these.

Uncertainty over a simulated snapshot is the job of the distribution-aware
:class:`~repro.uncertainty.ensemble.EnsembleRunner`::

    from repro.uncertainty import EnsembleRunner

    result = EnsembleRunner(default_spec(node_scale=0.05)).run(10_000, seed=0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class UncertainInput:
    """Distributional description of the model inputs.

    All fields have defaults matching the paper's scenario values, so
    ``UncertainInput()`` reproduces the paper's uncertainty envelope.
    """

    intensity_low: float = 50.0
    intensity_mode: float = 175.0
    intensity_high: float = 300.0
    pue_low: float = 1.1
    pue_mode: float = 1.3
    pue_high: float = 1.5
    embodied_low_kg: float = 400.0
    embodied_high_kg: float = 1100.0
    lifetimes_years: Sequence[float] = (3.0, 4.0, 5.0, 6.0, 7.0)

    def __post_init__(self):
        if not self.intensity_low <= self.intensity_mode <= self.intensity_high:
            raise ValueError("intensity values must satisfy low <= mode <= high")
        if self.intensity_low < 0:
            raise ValueError("intensity_low must be non-negative")
        if not 1.0 <= self.pue_low <= self.pue_mode <= self.pue_high:
            raise ValueError("PUE values must satisfy 1 <= low <= mode <= high")
        if not 0 < self.embodied_low_kg <= self.embodied_high_kg:
            raise ValueError("embodied bounds must satisfy 0 < low <= high")
        if not self.lifetimes_years or any(v <= 0 for v in self.lifetimes_years):
            raise ValueError("lifetimes_years must be non-empty and positive")
        object.__setattr__(self, "lifetimes_years", tuple(self.lifetimes_years))

    def distributions(self) -> Dict[str, object]:
        """The envelope as registry distributions, in historical draw order
        (intensity, PUE, per-server embodied, lifetime)."""
        from repro.uncertainty.distributions import Discrete, Triangular, Uniform

        return {
            "carbon_intensity_g_per_kwh": Triangular(
                self.intensity_low, self.intensity_mode, self.intensity_high),
            "pue": Triangular(self.pue_low, self.pue_mode, self.pue_high),
            "per_server_kgco2": Uniform(self.embodied_low_kg,
                                        self.embodied_high_kg),
            "lifetime_years": Discrete(self.lifetimes_years),
        }


@dataclass(frozen=True)
class UncertaintyResult:
    """Summary of the Monte-Carlo distribution over the snapshot total."""

    samples: int
    total_kg_mean: float
    total_kg_p5: float
    total_kg_p50: float
    total_kg_p95: float
    active_kg_mean: float
    embodied_kg_mean: float
    embodied_fraction_mean: float
    probability_embodied_exceeds_active: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "samples": self.samples,
            "total_kg_mean": self.total_kg_mean,
            "total_kg_p5": self.total_kg_p5,
            "total_kg_p50": self.total_kg_p50,
            "total_kg_p95": self.total_kg_p95,
            "active_kg_mean": self.active_kg_mean,
            "embodied_kg_mean": self.embodied_kg_mean,
            "embodied_fraction_mean": self.embodied_fraction_mean,
            "probability_embodied_exceeds_active": self.probability_embodied_exceeds_active,
        }


def closed_form_draws(
    inputs: UncertainInput,
    it_energy_kwh: float,
    server_count: int,
    period_days: float,
    n_samples: int,
    seed,
) -> Dict[str, np.ndarray]:
    """Sample the paper's closed-form carbon arithmetic (equation 1).

    The distributions come from the registry and are drawn from one seeded
    generator in the historical order (intensity, PUE, embodied, lifetime)
    — the generator discipline of :mod:`repro.uncertainty.sampling`, but
    the legacy stream — so the output is bit-identical to the
    pre-subsystem Monte Carlo for the same seed.  Used by the CLI's paper
    mode.
    """
    from repro.seeding import as_generator

    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = as_generator(seed)
    distributions = inputs.distributions()
    intensity = distributions["carbon_intensity_g_per_kwh"].sample(n_samples, rng)
    pue = distributions["pue"].sample(n_samples, rng)
    embodied_per_server = distributions["per_server_kgco2"].sample(n_samples, rng)
    lifetimes = distributions["lifetime_years"].sample(n_samples, rng)
    active_kg = it_energy_kwh * pue * intensity / 1000.0
    embodied_kg = (
        embodied_per_server / (lifetimes * 365.0)
        * server_count
        * period_days
    )
    return {
        "active_kg": active_kg,
        "embodied_kg": embodied_kg,
        "total_kg": active_kg + embodied_kg,
        "intensity": intensity,
        "pue": pue,
    }


def summarise_closed_form(draws: Dict[str, np.ndarray]) -> UncertaintyResult:
    """The historical percentile summary of closed-form draws."""
    total = draws["total_kg"]
    active = draws["active_kg"]
    embodied = draws["embodied_kg"]
    return UncertaintyResult(
        samples=int(len(total)),
        total_kg_mean=float(total.mean()),
        total_kg_p5=float(np.percentile(total, 5)),
        total_kg_p50=float(np.percentile(total, 50)),
        total_kg_p95=float(np.percentile(total, 95)),
        active_kg_mean=float(active.mean()),
        embodied_kg_mean=float(embodied.mean()),
        embodied_fraction_mean=float((embodied / total).mean()),
        probability_embodied_exceeds_active=float((embodied > active).mean()),
    )


__all__ = [
    "UncertainInput",
    "UncertaintyResult",
    "closed_form_draws",
    "summarise_closed_form",
]
