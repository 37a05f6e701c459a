"""The vectorized uncertainty engine.

This package turns the paper's handful of scenario corners (Tables 3-4)
into first-class probabilistic sweeps over *any* numeric spec parameter:

* :mod:`~repro.uncertainty.distributions` — the string-keyed distribution
  registry (triangular, uniform, normal, lognormal, discrete, empirical)
  and their JSON-tagged dictionary forms;
* :mod:`~repro.uncertainty.spec` — :class:`UncertainSpec`: an
  :class:`~repro.api.spec.AssessmentSpec` whose samplable fields may hold
  distribution objects, round-tripping through the same flat JSON file;
* :mod:`~repro.uncertainty.ensemble` — :class:`EnsembleRunner`: seeded
  n x k sampling pushed through the analysis stage in one columnar pass
  over a substrate simulated exactly once, or through the per-sample
  ``Assessment`` loop (the fallback and the reference) when a sampled
  field needs it;
* :mod:`~repro.uncertainty.result` — quantile-native
  :class:`EnsembleResult` (percentile bands, crossover probabilities,
  exceedance queries);
* :mod:`~repro.uncertainty.temporal` — :class:`TemporalEnsembleRunner`:
  intensity-trace scale/shift uncertainty rendered as emission bands over
  time.

Quick start::

    from repro.api import default_spec
    from repro.uncertainty import EnsembleRunner, Triangular, Uniform

    runner = EnsembleRunner(default_spec(node_scale=0.05), {
        "carbon_intensity_g_per_kwh": Triangular(50, 175, 300),
        "pue": Triangular(1.1, 1.3, 1.5),
        "per_server_kgco2": Uniform(400, 1100),
    })
    result = runner.run(n_samples=10_000, seed=0)
    print(result.quantiles("total_kg"))
    print(result.probability_embodied_exceeds_active)
"""

from repro.uncertainty.distributions import (
    DISTRIBUTIONS,
    Discrete,
    Distribution,
    Empirical,
    LogNormal,
    Normal,
    Triangular,
    Uniform,
    distribution_from_dict,
    paper_default_distributions,
    register_distribution,
)
from repro.uncertainty.sampling import SampleMatrix, draw_samples
from repro.uncertainty.spec import (
    INTENSITY_TRACE_FIELDS,
    TEMPORAL_UNCERTAIN_FIELDS,
    UNCERTAIN_FIELDS,
    UncertainSpec,
)
from repro.uncertainty.result import DEFAULT_PROBS, METRICS, EnsembleResult
from repro.uncertainty.ensemble import EnsembleRunner
from repro.uncertainty.temporal import (
    TemporalEnsembleResult,
    TemporalEnsembleRunner,
)

__all__ = [
    # distributions
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
    # sampling
    "SampleMatrix",
    "draw_samples",
    # spec
    "UncertainSpec",
    "UNCERTAIN_FIELDS",
    "INTENSITY_TRACE_FIELDS",
    "TEMPORAL_UNCERTAIN_FIELDS",
    # results and runners
    "DEFAULT_PROBS",
    "METRICS",
    "EnsembleResult",
    "EnsembleRunner",
    "TemporalEnsembleResult",
    "TemporalEnsembleRunner",
]
