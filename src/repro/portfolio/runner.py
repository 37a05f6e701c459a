"""Federated execution of a portfolio over one shared substrate cache.

:class:`PortfolioRunner` turns a :class:`~repro.portfolio.spec.
PortfolioSpec` into a :class:`~repro.portfolio.result.PortfolioResult`:

* every member resolves its components up front, so a typo'd inventory,
  amortisation policy or region binding fails in milliseconds — before any
  simulation;
* all members run **concurrently** against one shared
  :class:`~repro.api.substrates.SubstrateCache`: members whose specs share
  a physical configuration (the common siting-study case — one deployment,
  K candidate regions) simulate exactly once, and the cache's in-flight
  deduplication guarantees that even under concurrency;
* per-region intensity traces are aligned onto one shared grid across
  sites (:func:`repro.temporal.align.align_many_resampled`), so the
  carbon-aware marginal intensities the placement analysis compares are
  computed over the same window at the same cadence.

::

    from repro.portfolio import PortfolioRunner, PortfolioSpec

    spec = PortfolioSpec.from_regions(["GB", "FR", "PL"],
                                      base_spec=default_spec(node_scale=0.05),
                                      load_shares=[0.5, 0.3, 0.2])
    result = PortfolioRunner(spec).run()
    print(result.total_kg, result.best_site_for(1000.0).name)
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from repro.api.assessment import (
    Assessment,
    _coerce_catalog,
    resolve_spec_components,
)
from repro.api.result import AssessmentResult
from repro.api.spec import AssessmentSpec
from repro.api.substrates import SubstrateCache, resolve_substrates
from repro.temporal.align import align_many_resampled

from repro.portfolio.result import PortfolioMemberResult, PortfolioResult
from repro.portfolio.spec import PortfolioSpec

#: Quantile of the aligned intensity trace used as the carbon-aware
#: marginal intensity (matches the grid layer's "low" reference).
CLEAN_QUANTILE = 0.05


def clean_marginal_intensities(
    substrates: SubstrateCache,
    specs: List[AssessmentSpec],
    results: List[AssessmentResult],
) -> List[float]:
    """Per-member carbon-aware marginal intensity (g/kWh).

    Members pinning a constant intensity keep it (shifting load in
    time cannot beat a flat price); grid-bound members get the
    :data:`CLEAN_QUANTILE` quantile of their intensity trace, with all
    traces aligned onto one shared grid first so every site is judged
    over the same window at the same cadence.  Each trace is the
    provider's default reference series — the very one the member's
    snapshot intensity was resolved from — so the two marginal views
    the placement tables compare derive from one window.

    A module function (not a runner method) so the batch runner's sweep
    compiler can reuse the exact arithmetic when it assembles portfolio
    results from columnar member evaluations.
    """
    traced: Dict[int, str] = {}
    for index, spec in enumerate(specs):
        if spec.carbon_intensity_g_per_kwh is None:
            traced[index] = spec.grid
    clean = [float(result.spec.carbon_intensity_g_per_kwh)
             for result in results]
    if not traced:
        return clean
    series = [substrates.intensity_series(grid).series
              for grid in traced.values()]
    aligned = align_many_resampled(series)
    for (index, _), trace in zip(traced.items(), aligned):
        clean[index] = float(np.quantile(trace.values, CLEAN_QUANTILE))
    return clean


class PortfolioRunner:
    """Run every member of a portfolio against shared cached substrates.

    Parameters
    ----------
    spec:
        The portfolio to run.
    substrates:
        Substrate cache shared by all members (and with any other runner
        given the same cache); defaults to the process-wide shared cache.
    max_workers:
        Thread count for running members concurrently; ``None`` (default)
        uses one thread per member, capped at the CPU count.
    substrate_cache_dir:
        Convenience mirror of :class:`~repro.api.batch.
        BatchAssessmentRunner`: build a private cache persisting under
        this directory.  Mutually exclusive with ``substrates``.
    catalog:
        Opt-in run cataloguing (a catalog, recorder, or path — see
        :class:`~repro.api.assessment.Assessment`): :meth:`run` records
        the portfolio result, and a repeat of a catalogued portfolio spec
        is served with zero simulation.
    """

    def __init__(
        self,
        spec: PortfolioSpec,
        *,
        substrates: Optional[SubstrateCache] = None,
        max_workers: Optional[int] = None,
        substrate_cache_dir=None,
        catalog=None,
    ):
        if not isinstance(spec, PortfolioSpec):
            raise TypeError(
                f"spec must be a PortfolioSpec, got {type(spec).__name__}")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1 (or None)")
        self._spec = spec
        self._substrates = resolve_substrates(substrates, substrate_cache_dir)
        self._max_workers = max_workers
        self._recorder = _coerce_catalog(catalog)

    @property
    def spec(self) -> PortfolioSpec:
        return self._spec

    @property
    def substrates(self) -> SubstrateCache:
        return self._substrates

    # -- running ---------------------------------------------------------------------

    def run(self) -> PortfolioResult:
        """Run all members concurrently and assemble the portfolio result.

        With ``catalog=`` configured, a previously catalogued run of this
        exact portfolio spec is served from the catalog (zero simulation)
        as a :class:`~repro.catalog.ServedRun`; otherwise the live run
        happens and its result is recorded.
        """
        if self._recorder is not None:
            return self._recorder.run_portfolio(self)
        return self.run_live()

    def run_live(self) -> PortfolioResult:
        """Run the portfolio unconditionally (never catalog-served)."""
        specs = [member.effective_spec() for member in self._spec.members]
        # Fail on any typo'd component (including an unknown region
        # binding, surfacing as an unknown ``region-*`` grid provider)
        # before any member simulates.
        for spec in specs:
            resolve_spec_components(spec)
        results = self._run_members(specs)
        clean = self._clean_marginal_intensities(specs, results)
        members = tuple(
            PortfolioMemberResult(
                member=member,
                result=result,
                marginal_intensity_g_per_kwh=(
                    result.spec.carbon_intensity_g_per_kwh),
                clean_marginal_intensity_g_per_kwh=clean[index],
            )
            for index, (member, result) in enumerate(
                zip(self._spec.members, results))
        )
        return PortfolioResult(spec=self._spec, members=members)

    # -- internals -------------------------------------------------------------------

    def _run_members(self, specs: List[AssessmentSpec]) -> List[AssessmentResult]:
        """Run the member assessments, concurrently when there are several.

        The substrate cache deduplicates in-flight simulations, so members
        sharing a physical configuration cost one engine run even when
        their threads race.
        """
        workers = self._max_workers or min(len(specs), os.cpu_count() or 1)
        workers = min(workers, len(specs))

        def run_one(spec: AssessmentSpec) -> AssessmentResult:
            return Assessment(spec, substrates=self._substrates).run()

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run_one, specs))
        return [run_one(spec) for spec in specs]

    def _clean_marginal_intensities(
        self,
        specs: List[AssessmentSpec],
        results: List[AssessmentResult],
    ) -> List[float]:
        """Delegate to the shared :func:`clean_marginal_intensities`."""
        return clean_marginal_intensities(self._substrates, specs, results)


__all__ = ["CLEAN_QUANTILE", "PortfolioRunner", "clean_marginal_intensities"]
