"""The distribution vocabulary of the uncertainty engine.

A :class:`Distribution` describes one uncertain numeric input — a spec
field, an intensity-trace scale factor — independent of what it is attached
to.  Each distribution:

* samples vectorised from an explicit :class:`numpy.random.Generator`
  (never global state), so ensembles are bit-reproducible per seed;
* knows its ``support()`` (the closed interval samples fall in);
* round-trips losslessly through plain dictionaries tagged with its
  registered name (``{"dist": "triangular", "low": 50, ...}``), which is
  what lets an :class:`~repro.uncertainty.spec.UncertainSpec` live in the
  same JSON file as the :class:`~repro.api.spec.AssessmentSpec` it extends.

The string-keyed :data:`DISTRIBUTIONS` registry is the extension seam, in
the same style as the pipeline's other component registries: third-party
distributions plug in with one :func:`register_distribution` call and
become addressable from spec files without touching core code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import ComponentRegistry
from repro.seeding import SeedLike, as_generator

#: The key naming the distribution type inside a serialised distribution.
DIST_KEY = "dist"

#: ``factory(**params) -> Distribution`` — the registered distribution
#: types an :class:`~repro.uncertainty.spec.UncertainSpec` may name.
DISTRIBUTIONS = ComponentRegistry("distribution")


def register_distribution(name: str, factory=None, *, overwrite: bool = False):
    """Register a distribution type under ``name`` (decorator-friendly)."""
    return DISTRIBUTIONS.register(name, factory, overwrite=overwrite)


class Distribution:
    """One uncertain scalar input, sampled vectorised from an explicit rng.

    Subclasses are frozen dataclasses whose fields are the distribution
    parameters; they implement :meth:`_draw` and :meth:`support` and set
    ``name`` to their registered key.
    """

    #: The registered key of this distribution type.
    name: str = "abstract"

    # -- sampling -----------------------------------------------------------------

    def sample(self, n: int, seed: SeedLike) -> np.ndarray:
        """Draw ``n`` samples as a float64 array (seeded, reproducible)."""
        if n <= 0:
            raise ValueError("n must be positive")
        values = self._draw(as_generator(seed), int(n))
        return np.asarray(values, dtype=np.float64)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    # -- introspection ------------------------------------------------------------

    def support(self) -> Tuple[float, float]:
        """The closed interval every sample falls in (may be infinite)."""
        raise NotImplementedError

    # -- dict / JSON round-trip ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The distribution as a plain tagged dictionary."""
        data: Dict[str, Any] = {DIST_KEY: self.name}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            data[field.name] = value
        return data

    def __str__(self) -> str:
        params = ", ".join(
            f"{field.name}={getattr(self, field.name)!r}"
            for field in dataclasses.fields(self))
        return f"{self.name}({params})"


def distribution_from_dict(data: Dict[str, Any]) -> Distribution:
    """Build a distribution from its tagged dictionary form.

    The ``"dist"`` key selects the registered type; every other key is
    passed to its factory as a parameter, so unknown parameters fail with
    the factory's own signature error.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a distribution must be a JSON object, got {data!r}")
    if DIST_KEY not in data:
        raise ValueError(
            f"a distribution object needs a {DIST_KEY!r} key naming its type; "
            f"registered types: {', '.join(DISTRIBUTIONS.names())}")
    params = {key: value for key, value in data.items() if key != DIST_KEY}
    try:
        made = DISTRIBUTIONS.create(data[DIST_KEY], **params)
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for distribution {data[DIST_KEY]!r}: {exc}") from None
    if not isinstance(made, Distribution):
        raise TypeError(
            f"distribution factory {data[DIST_KEY]!r} returned "
            f"{type(made).__name__}, not a Distribution")
    return made


# ----------------------------------------------------------------------------
# stock distributions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Triangular(Distribution):
    """Triangular on [low, high] with the given mode — the paper's shape
    for grid intensity and PUE (Low/Medium/High scenario corners)."""

    low: float
    mode: float
    high: float

    name = "triangular"

    def __post_init__(self):
        if not self.low <= self.mode <= self.high:
            raise ValueError("triangular requires low <= mode <= high")
        if self.low == self.high:
            raise ValueError("triangular requires low < high (use a discrete "
                             "single-value distribution for a constant)")

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.triangular(self.low, self.mode, self.high, size=n)

    def support(self) -> Tuple[float, float]:
        return (self.low, self.high)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on [low, high] — the paper's shape for per-server embodied
    carbon (the 400-1100 kg bounds)."""

    low: float
    high: float

    name = "uniform"

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError("uniform requires low < high")

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def support(self) -> Tuple[float, float]:
        return (self.low, self.high)


@dataclass(frozen=True)
class Normal(Distribution):
    """Normal(mean, std), optionally truncated by clipping to [low, high].

    Clipping concentrates the clipped tail mass *at* the bound — the right
    behaviour for physical limits like "PUE is at least 1.0" — and keeps
    sampling a single vectorised pass (no rejection loop), so the sample
    stream for a seed is independent of the truncation bounds.
    """

    mean: float
    std: float
    low: Optional[float] = None
    high: Optional[float] = None

    name = "normal"

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("normal requires std > 0")
        if (self.low is not None and self.high is not None
                and not self.low < self.high):
            raise ValueError("normal truncation requires low < high")

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = rng.normal(self.mean, self.std, size=n)
        if self.low is not None or self.high is not None:
            values = np.clip(values, self.low, self.high)
        return values

    def support(self) -> Tuple[float, float]:
        return (self.low if self.low is not None else -math.inf,
                self.high if self.high is not None else math.inf)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal: ``exp(Normal(mu, sigma))`` — strictly positive and
    right-skewed, the natural shape for manufacturing-footprint estimates."""

    mu: float
    sigma: float

    name = "lognormal"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("lognormal requires sigma > 0")

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def support(self) -> Tuple[float, float]:
        return (0.0, math.inf)

    @classmethod
    def from_median_spread(cls, median: float, spread: float) -> "LogNormal":
        """A log-normal from its median and a multiplicative ~68% spread
        (``spread=1.3`` means "typically within x/÷ 1.3 of the median")."""
        if median <= 0:
            raise ValueError("median must be positive")
        if spread <= 1.0:
            raise ValueError("spread must exceed 1.0")
        return cls(mu=math.log(median), sigma=math.log(spread))


@dataclass(frozen=True)
class Discrete(Distribution):
    """A finite set of values, uniformly or explicitly weighted — the
    paper's shape for the 3-7-year lifetime sweep."""

    values: Sequence[float]
    weights: Optional[Sequence[float]] = None

    name = "discrete"

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("discrete requires at least one value")
        object.__setattr__(self, "values", values)
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            if len(weights) != len(values):
                raise ValueError("weights must match values in length")
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError("weights must be non-negative and sum > 0")
            object.__setattr__(
                self, "weights", tuple(w / sum(weights) for w in weights))

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = np.asarray(self.values, dtype=np.float64)
        if self.weights is None:
            # Matches the historical Monte-Carlo lifetime draw bit for bit.
            return rng.choice(values, size=n)
        return rng.choice(values, size=n, p=np.asarray(self.weights))

    def support(self) -> Tuple[float, float]:
        return (min(self.values), max(self.values))


@dataclass(frozen=True)
class Empirical(Distribution):
    """Bootstrap resampling of an observed sample — plug measured data
    (e.g. a real intensity history) straight into an ensemble."""

    observations: Sequence[float]

    name = "empirical"

    def __post_init__(self):
        observations = tuple(float(v) for v in self.observations)
        if len(observations) < 2:
            raise ValueError("empirical requires at least two observations")
        object.__setattr__(self, "observations", observations)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        observations = np.asarray(self.observations, dtype=np.float64)
        return observations[rng.integers(0, len(observations), size=n)]

    def support(self) -> Tuple[float, float]:
        return (min(self.observations), max(self.observations))


register_distribution(Triangular.name, Triangular)
register_distribution(Uniform.name, Uniform)
register_distribution(Normal.name, Normal)
register_distribution(LogNormal.name, LogNormal)
register_distribution(Discrete.name, Discrete)
register_distribution(Empirical.name, Empirical)


# ----------------------------------------------------------------------------
# the paper's default input envelope
# ----------------------------------------------------------------------------

def paper_default_distributions() -> Dict[str, Distribution]:
    """The paper's uncertainty envelope as spec-field distributions.

    Triangular intensity and PUE over the Low/Medium/High scenario values,
    uniform per-server embodied carbon over the Table 4 bounds, discrete
    lifetimes over the 3-7-year sweep — the same envelope as the
    closed-form :class:`~repro.core.uncertainty.UncertainInput` defaults.
    """
    return {
        "carbon_intensity_g_per_kwh": Triangular(50.0, 175.0, 300.0),
        "pue": Triangular(1.1, 1.3, 1.5),
        "per_server_kgco2": Uniform(400.0, 1100.0),
        "lifetime_years": Discrete((3.0, 4.0, 5.0, 6.0, 7.0)),
    }


__all__ = [
    "DIST_KEY",
    "DISTRIBUTIONS",
    "Distribution",
    "Triangular",
    "Uniform",
    "Normal",
    "LogNormal",
    "Discrete",
    "Empirical",
    "distribution_from_dict",
    "paper_default_distributions",
    "register_distribution",
]
