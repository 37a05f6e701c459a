"""The ensemble execution engine: one substrate, n sampled scenarios.

:class:`EnsembleRunner` turns an :class:`~repro.uncertainty.spec.
UncertainSpec` into an :class:`~repro.uncertainty.result.EnsembleResult`.
It picks the evaluation path itself, from the sampled fields:

* **vectorized** (whenever :meth:`EnsembleRunner.vectorizable`): the
  workload -> power substrate is simulated exactly once through the shared
  :class:`~repro.api.substrates.SubstrateCache`, after which the whole
  carbon model collapses to columnar arithmetic — the snapshot's measured
  energies (produced by contracting the affine
  :class:`~repro.power.fleet_power.FleetPowerModel` coefficients over the
  fleet utilisation matrix) are multiplied against the sampled PUE and
  intensity columns in one broadcast pass, and the amortised embodied term
  against the sampled lifetime / per-server columns in another.  10k
  scenarios cost one simulation plus a few array operations.
* **per-sample** (the fallback and the reference semantics): one
  :class:`~repro.api.assessment.Assessment` run per sample against the
  same substrate cache.  It is the only path for sampled fields the
  columnar pass cannot absorb (physical fields, which change the
  substrate, and non-linear amortisation policies); the uncertainty
  benchmark calls it directly to pin vectorized-vs-per-sample quantile
  agreement at <= 1e-9 relative and the >= 20x speedup.

Sampled *physical* fields (``node_scale``, ...) take the per-sample path:
each **distinct** sampled value costs one simulation (deduplicated by the
substrate cache), so a discrete distribution over a handful of fleet
scales stays affordable while a continuous one is honestly expensive.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.api.assessment import Assessment
from repro.api.spec import (
    ANALYSIS_SAMPLE_FIELDS,
    AssessmentSpec,
    TEMPORAL_SAMPLE_FIELDS,
)
from repro.api.substrates import SubstrateCache, shared_substrates

from repro.uncertainty.distributions import Distribution
from repro.uncertainty.result import EnsembleResult
from repro.uncertainty.sampling import SampleMatrix, draw_samples
from repro.uncertainty.spec import INTENSITY_TRACE_FIELDS, UncertainSpec

class EnsembleRunner:
    """Run sampled scenario ensembles against shared cached substrates.

    Parameters
    ----------
    spec:
        An :class:`UncertainSpec`, or a plain base
        :class:`~repro.api.spec.AssessmentSpec` combined with
        ``distributions``.
    distributions:
        Field -> distribution mapping when ``spec`` is a plain spec;
        defaults to the paper's input envelope
        (:func:`~repro.uncertainty.distributions.
        paper_default_distributions`).
    substrates:
        Substrate cache shared with any other runner or assessment;
        defaults to the process-wide cache.
    catalog:
        Opt-in run cataloguing (a catalog, recorder, or path — see
        :class:`~repro.api.assessment.Assessment`).  An ensemble is a
        pure function of (spec, n_samples, seed), so a repeat
        :meth:`run` with the same arguments is served from the catalog
        with zero simulation; cataloguing requires an int seed.
    """

    def __init__(
        self,
        spec: Union[UncertainSpec, AssessmentSpec, None] = None,
        distributions: Optional[Mapping[str, Distribution]] = None,
        *,
        substrates: Optional[SubstrateCache] = None,
        catalog=None,
    ):
        from repro.api.assessment import _coerce_catalog
        from repro.uncertainty.distributions import paper_default_distributions

        self._spec = UncertainSpec.coerce(
            spec, distributions,
            default_distributions=paper_default_distributions)
        self._substrates = (substrates if substrates is not None
                            else shared_substrates())
        self._recorder = _coerce_catalog(catalog)
        self._check_static_fields()

    def _check_static_fields(self) -> None:
        temporal_only = [
            name for name in self._spec.fields
            if name in TEMPORAL_SAMPLE_FIELDS or name in INTENSITY_TRACE_FIELDS
        ]
        if temporal_only:
            raise ValueError(
                f"fields {', '.join(temporal_only)} only act through the "
                "time-resolved engine; use "
                "repro.uncertainty.TemporalEnsembleRunner for them")

    @property
    def spec(self) -> UncertainSpec:
        return self._spec

    @property
    def substrates(self) -> SubstrateCache:
        return self._substrates

    # -- sampling ------------------------------------------------------------------

    def draw(self, n_samples: int, seed) -> SampleMatrix:
        """The ensemble's input sample matrix (pure function of the seed)."""
        return draw_samples(self._spec.distributions, n_samples, seed)

    # -- running -------------------------------------------------------------------

    def vectorizable(self) -> bool:
        """Whether the columnar analysis pass can absorb every sampled field."""
        return (all(name in ANALYSIS_SAMPLE_FIELDS
                    for name in self._spec.fields)
                and self._spec.base.amortization == "linear")

    def run(self, n_samples: int = 1000, seed: int = 0) -> EnsembleResult:
        """Run the ensemble and return the quantile-native result.

        The columnar pass runs whenever :meth:`vectorizable` is true, the
        per-sample loop otherwise; :attr:`EnsembleResult.method` reports
        which.  With ``catalog=`` configured, a previously catalogued
        (spec, n, seed) draw is served from the catalog with zero
        simulation.
        """
        if self._recorder is not None:
            return self._recorder.run_ensemble(
                self, n_samples=n_samples, seed=seed)
        return self.run_live(n_samples=n_samples, seed=seed)

    def run_live(self, n_samples: int = 1000, seed: int = 0) -> EnsembleResult:
        """Run the ensemble unconditionally (never catalog-served)."""
        samples = self.draw(n_samples, seed)
        if self.vectorizable():
            active, embodied = self._evaluate_vectorized(samples)
            used = "vectorized"
        else:
            active, embodied = self._evaluate_oracle(samples)
            used = "oracle"
        return EnsembleResult(
            spec=self._spec,
            samples=samples,
            active_kg=active,
            embodied_kg=embodied,
            total_kg=active + embodied,
            seed=int(seed) if not isinstance(seed, np.random.Generator) else -1,
            method=used,
        )

    # -- the columnar analysis pass --------------------------------------------------

    def _evaluate_vectorized(self, samples: SampleMatrix):
        """Contract the cached substrate against the sampled columns.

        The arithmetic lives in the shared
        :func:`~repro.api.columnar.evaluate_ensemble_columns` kernel
        (also the basis of the batch runner's sweep compiler) so ensembles
        and sweeps run the same audited columnar pass.
        """
        from repro.api.columnar import evaluate_ensemble_columns

        return evaluate_ensemble_columns(
            self._spec.base, self._substrates, samples)

    # -- the per-sample reference loop -----------------------------------------------

    def _evaluate_oracle(self, samples: SampleMatrix):
        """One full Assessment per sample (shared substrate cache)."""
        n = samples.n_samples
        active = np.empty(n, dtype=np.float64)
        embodied = np.empty(n, dtype=np.float64)
        for index in range(n):
            row = samples.row(index)
            try:
                spec_i = self._spec.base.replace(**row)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"sample {index} produced an invalid spec ({row}): {exc}; "
                    "truncate the distribution to the field's domain") from exc
            result = Assessment(spec_i, substrates=self._substrates).run()
            active[index] = result.active_kg
            embodied[index] = result.embodied_kg
        return active, embodied

    # -- sensitivity ------------------------------------------------------------------

    def sensitivity(self, n_samples: int = 2048,
                    seed: int = 0) -> List[Dict[str, object]]:
        """Sobol-style one-at-a-time sensitivity ranking of the inputs.

        Each distributed field is varied alone (the others held at their
        base-spec point values) in its own ensemble of ``n_samples``, and
        fields are ranked by the variance their variation alone induces in
        the total.  ``variance_share`` normalises against the sum across
        fields — under near-additive models like equation 1 it reads as
        the field's share of the explainable output variance.
        """
        per_field = []
        for name in self._spec.fields:
            single = EnsembleRunner(
                UncertainSpec(base=self._spec.base,
                              distributions={
                                  name: self._spec.distributions[name]}),
                substrates=self._substrates)
            result = single.run(n_samples=n_samples, seed=seed)
            variance = result.std("total_kg") ** 2
            quantiles = result.quantiles("total_kg", probs=(0.05, 0.95))
            per_field.append({
                "field": name,
                "std_kg": result.std("total_kg"),
                "variance_kg2": variance,
                "p05_kg": quantiles["p05"],
                "p95_kg": quantiles["p95"],
                "swing_kg": quantiles["p95"] - quantiles["p05"],
            })
        total_variance = sum(row["variance_kg2"] for row in per_field)
        for row in per_field:
            row["variance_share"] = (
                row["variance_kg2"] / total_variance if total_variance > 0
                else 0.0)
        per_field.sort(key=lambda row: row["variance_kg2"], reverse=True)
        return per_field


__all__ = ["EnsembleRunner"]
