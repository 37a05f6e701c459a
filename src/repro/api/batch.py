"""Batch scenario sweeps over shared substrates, compiled before execution.

The paper's Tables 3 and 4 are small hand-enumerated sweeps; a production
service answers arbitrary "what if" grids — intensity × PUE × lifetime ×
embodied estimate × fleet scale — over the same measured snapshot.
:class:`BatchAssessmentRunner` runs such grids in two stages:

* **plan** — the expanded grid is deduplicated (each distinct full spec
  evaluates once, results fanned back out in input order) and compiled by
  :func:`~repro.api.columnar.compile_sweep` into catalog-served points,
  *columnar groups* (specs sharing a physical substrate), and per-spec
  fallback points (non-linear amortisation, registry-object embodied
  estimators);
* **execute** — each distinct physical configuration simulates exactly
  once through the shared :class:`~repro.api.substrates.SubstrateCache`
  (concurrently when ``max_workers`` > 1, failing fast on the first
  simulation error), after which every columnar group is evaluated by
  **one** vectorised pass of the shared kernel
  (:func:`~repro.api.columnar.evaluate_assessment_group`) instead of one
  Python ``Assessment`` per point.  A 1,000-point analysis-only grid costs
  one simulation plus a handful of array operations.

The kernel replays the reference pipeline's float operations exactly, so
the compiled engine is **bit-identical** to the per-spec loop — same
results, same ordering, byte-identical serialised payloads and catalog
digests.  The loop itself is kept as the oracle in
``tests/oracles/batch.py``, which the differential test suite and the
sweep benchmark pin the compiled engine against.

::

    runner = BatchAssessmentRunner(default_spec(node_scale=0.05))
    batch = runner.sweep(intensity=[50, 175, 300], pue=[1.1, 1.3],
                         lifetime=[3, 5])
    for row in batch.as_rows():
        print(row["intensity_g_per_kwh"], row["total_kg"])
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.io.csvio import write_rows_csv
from repro.io.jsonio import PathLike, write_json

from repro.api.assessment import Assessment, _coerce_catalog, resolve_spec_components
from repro.api.columnar import (
    COLUMNAR,
    compile_sweep,
    evaluate_assessment_group,
    evaluate_temporal_group,
    temporal_group_key,
)
from repro.api.result import AssessmentResult
from repro.api.spec import AssessmentSpec, default_spec
from repro.api.substrates import SubstrateCache, resolve_substrates

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.temporal import TemporalAssessmentResult

#: Sweep axis name -> the AssessmentSpec field it drives.
SWEEP_AXES: Dict[str, str] = {
    "intensity": "carbon_intensity_g_per_kwh",
    "pue": "pue",
    "lifetime": "lifetime_years",
    "per_server_kgco2": "per_server_kgco2",
    "scale": "node_scale",
    "amortization": "amortization",
    "grid": "grid",
    "embodied_estimator": "embodied_estimator",
    # Carbon-aware temporal axes (sweep_temporal only; the static pipeline
    # ignores these fields, so a plain sweep over them rejects loudly
    # rather than returning N identical results).
    "shift_hours": "shift_hours",
    "defer_fraction": "defer_fraction",
    "trace_source": "trace_source",
    "resolution": "temporal_resolution_s",
    "alignment": "alignment",
}

#: Axes that only have an effect through the time-resolved engine.
TEMPORAL_ONLY_AXES = frozenset(
    {"shift_hours", "defer_fraction", "trace_source", "resolution", "alignment"}
)

@dataclass(frozen=True)
class BatchResult:
    """The ordered outcome of a batch sweep."""

    results: Tuple[AssessmentResult, ...]

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> AssessmentResult:
        return self.results[index]

    @property
    def totals_kg(self) -> List[float]:
        return [result.total_kg for result in self.results]

    @property
    def min_total_kg(self) -> float:
        return min(self.totals_kg)

    @property
    def max_total_kg(self) -> float:
        return max(self.totals_kg)

    def as_rows(self) -> List[Dict[str, object]]:
        """One summary row per scenario, in sweep order."""
        return [result.summary() for result in self.results]

    def to_json(self, path: PathLike) -> None:
        write_json(path, self.as_rows())

    def to_csv(self, path: PathLike) -> None:
        write_rows_csv(path, self.as_rows())


@dataclass(frozen=True)
class TemporalBatchResult:
    """The ordered outcome of a temporal scenario sweep."""

    results: Tuple["TemporalAssessmentResult", ...]

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> "TemporalAssessmentResult":
        return self.results[index]

    @property
    def active_totals_kg(self) -> List[float]:
        return [result.active_kg for result in self.results]

    def best(self) -> "TemporalAssessmentResult":
        """The scenario with the lowest time-resolved active carbon."""
        return min(self.results, key=lambda result: result.active_kg)

    def as_rows(self) -> List[Dict[str, object]]:
        """One summary row per scenario, in sweep order."""
        return [result.summary() for result in self.results]

    def to_json(self, path: PathLike) -> None:
        write_json(path, self.as_rows())

    def to_csv(self, path: PathLike) -> None:
        write_rows_csv(path, self.as_rows())


class BatchAssessmentRunner:
    """Run many assessment scenarios against shared cached substrates.

    Parameters
    ----------
    base_spec:
        The spec every scenario starts from; defaults to the paper's
        full-scale snapshot.
    substrates:
        Substrate cache shared by all scenarios (and with any other runner
        or :class:`~repro.api.assessment.Assessment` given the same cache).
    max_workers:
        Thread count for simulating *distinct* physical configurations
        concurrently; 1 (the default) runs everything sequentially.
    substrate_cache_dir:
        Convenience for the common case: build a private
        :class:`SubstrateCache` persisting snapshots under this directory
        (so full-scale simulations are paid once per machine).  Mutually
        exclusive with ``substrates`` — pass a configured cache instead.
    jobs:
        Per-simulation site concurrency.  Giving ``jobs`` (with or without
        ``substrate_cache_dir``) builds a private cache configured with it;
        mutually exclusive with ``substrates`` for the same reason.
    catalog:
        Opt-in run cataloguing (a catalog, recorder, or path — see
        :class:`~repro.api.assessment.Assessment`), threaded through to
        every scenario this runner executes: already-catalogued scenarios
        are served without simulating (their physical configurations are
        not even prepared), fresh ones are recorded.
    """

    def __init__(
        self,
        base_spec: Optional[AssessmentSpec] = None,
        *,
        substrates: Optional[SubstrateCache] = None,
        max_workers: int = 1,
        substrate_cache_dir=None,
        jobs: Optional[int] = None,
        catalog=None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._base_spec = base_spec or default_spec()
        self._substrates = resolve_substrates(substrates, substrate_cache_dir,
                                              jobs)
        self._max_workers = max_workers
        self._recorder = _coerce_catalog(catalog)

    @property
    def base_spec(self) -> AssessmentSpec:
        return self._base_spec

    @property
    def substrates(self) -> SubstrateCache:
        return self._substrates

    # -- building the scenario list -----------------------------------------------

    def grid_specs(self, **axes: Iterable) -> List[AssessmentSpec]:
        """The cartesian product of the given sweep axes as concrete specs.

        Axis names are the keys of :data:`SWEEP_AXES` (``intensity``,
        ``pue``, ``lifetime``, ``per_server_kgco2``, ``scale``,
        ``amortization``, ``grid``, ``embodied_estimator``); values are
        iterables of scenario values.  Order is deterministic: the last
        axis varies fastest.
        """
        unknown = sorted(set(axes) - set(SWEEP_AXES))
        if unknown:
            raise ValueError(
                f"unknown sweep axes: {', '.join(unknown)}; "
                f"known axes: {', '.join(sorted(SWEEP_AXES))}"
            )
        if "grid" in axes and "intensity" in axes:
            raise ValueError(
                "sweeping 'grid' and 'intensity' together is contradictory: "
                "a fixed intensity would make every grid scenario identical; "
                "sweep one or the other"
            )
        names = [name for name in SWEEP_AXES if name in axes]
        value_lists = [list(axes[name]) for name in names]
        for name, values in zip(names, value_lists):
            if not values:
                raise ValueError(f"sweep axis {name!r} has no values")
        specs: List[AssessmentSpec] = []
        for combo in itertools.product(*value_lists):
            changes = {SWEEP_AXES[name]: value for name, value in zip(names, combo)}
            if "grid" in axes:
                # Sweeping providers must actually exercise them: clear the
                # fixed intensity so each scenario resolves its own grid
                # (mirrors Assessment.with_grid and the CLI --grid flag).
                changes["carbon_intensity_g_per_kwh"] = None
            specs.append(self._base_spec.replace(**changes))
        return specs

    # -- running ---------------------------------------------------------------------

    def run_specs(self, specs: Sequence[AssessmentSpec]) -> BatchResult:
        """Run the given scenarios in order, sharing substrates.

        Fully identical specs (duplicate axis values, say) evaluate once;
        the results fan back out in input order.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("run_specs needs at least one spec")
        distinct, order = self._dedupe(specs)
        evaluated = self._evaluate_assessments(distinct)
        return BatchResult(results=tuple(evaluated[i] for i in order))

    def sweep(self, **axes: Iterable) -> BatchResult:
        """Run the cartesian product of the given axes (see :meth:`grid_specs`).

        Temporal-only axes are rejected here: the static pipeline would
        evaluate every such scenario to the identical number, which reads
        as "this lever saves nothing" — use :meth:`sweep_temporal`.
        """
        temporal_axes = sorted(TEMPORAL_ONLY_AXES & set(axes))
        if temporal_axes:
            raise ValueError(
                f"axes {', '.join(temporal_axes)} only affect the "
                "time-resolved engine; use sweep_temporal() for them"
            )
        return self.run_specs(self.grid_specs(**axes))

    def run_temporal_specs(
        self, specs: Sequence[AssessmentSpec]
    ) -> TemporalBatchResult:
        """Run the given scenarios through the time-resolved engine.

        Shares substrates exactly like :meth:`run_specs` — the expensive
        simulation happens once per distinct physical configuration, and
        every temporal scenario (shift, deferral, grid, resolution) is a
        cheap re-integration over the cached traces.  The columnar kernel
        additionally aligns traces once per group and integrates each
        distinct (shift, defer, PUE) scenario once.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("run_temporal_specs needs at least one spec")
        distinct, order = self._dedupe(specs)
        evaluated = self._evaluate_temporals(distinct)
        return TemporalBatchResult(results=tuple(evaluated[i] for i in order))

    def sweep_temporal(self, **axes: Iterable) -> TemporalBatchResult:
        """Sweep carbon-aware scenario axes through the temporal engine.

        The axes are the same as :meth:`sweep` plus the temporal ones —
        ``shift_hours``, ``defer_fraction``, ``trace_source``,
        ``resolution`` and ``alignment`` — so a time-shifting ×
        region-shifting grid is one call::

            runner.sweep_temporal(grid=["region-GB", "region-FR"],
                                  shift_hours=[0, 6, 12])
        """
        return self.run_temporal_specs(self.grid_specs(**axes))

    # -- engine internals --------------------------------------------------------------

    @staticmethod
    def _dedupe(
        specs: Sequence[AssessmentSpec],
    ) -> Tuple[List[AssessmentSpec], List[int]]:
        """Distinct specs in first-appearance order, plus the fan-out map.

        ``order[i]`` is the index into the distinct list serving input
        position ``i``; duplicate inputs share one evaluation (and one
        result object).
        """
        distinct: List[AssessmentSpec] = []
        positions: Dict[AssessmentSpec, int] = {}
        order: List[int] = []
        for spec in specs:
            index = positions.get(spec)
            if index is None:
                index = len(distinct)
                positions[spec] = index
                distinct.append(spec)
            order.append(index)
        return distinct, order

    def _evaluate_assessments(
        self, specs: List[AssessmentSpec]
    ) -> List[AssessmentResult]:
        """Evaluate distinct specs in order, one kernel pass per group."""
        self._prepare_snapshots(specs, kind="assess")
        plan = compile_sweep(specs, recorder=self._recorder, kind="assess")
        results: List[Optional[AssessmentResult]] = [None] * len(specs)
        for group in plan.groups:
            evaluated = evaluate_assessment_group(
                [specs[i] for i in group], self._substrates)
            for i, result in zip(group, evaluated):
                if self._recorder is not None:
                    result = self._recorder.run(
                        "assess", specs[i].to_dict(),
                        lambda result=result: result)
                results[i] = result
        for i, disposition in enumerate(plan.dispositions):
            if disposition != COLUMNAR:
                # Served points come back from the catalog; fallback
                # points run the reference loop (and record, if enabled).
                results[i] = Assessment(specs[i], substrates=self._substrates,
                                        catalog=self._recorder).run()
        return results

    def _evaluate_temporals(self, specs: List[AssessmentSpec]) -> List:
        """Evaluate distinct temporal specs, one kernel pass per group."""
        from repro.api.temporal import TemporalAssessment

        self._prepare_snapshots(specs, kind="temporal")
        plan = compile_sweep(specs, recorder=self._recorder, kind="temporal",
                             group_key=temporal_group_key)
        results: List[Optional[object]] = [None] * len(specs)
        for group in plan.groups:
            evaluated = evaluate_temporal_group(
                [specs[i] for i in group], self._substrates)
            for i, result in zip(group, evaluated):
                if self._recorder is not None:
                    result = self._recorder.run(
                        "temporal", specs[i].to_dict(),
                        lambda result=result: result)
                results[i] = result
        for i, disposition in enumerate(plan.dispositions):
            if disposition != COLUMNAR:
                results[i] = TemporalAssessment(
                    specs[i], substrates=self._substrates,
                    catalog=self._recorder).run()
        return results

    # -- portfolio (multi-site placement) scenarios ----------------------------------

    def sweep_portfolio(
        self,
        region: Iterable[str],
        load_split: Optional[Iterable[Sequence[float]]] = None,
        *,
        name: str = "portfolio-sweep",
    ):
        """Sweep region × load-placement scenarios over one shared substrate.

        Builds one portfolio per load split: every scenario has one member
        per ``region`` code (this runner's base spec bound to the
        registered ``region-<CODE>`` grid provider) and one row of
        ``load_split`` as its shares — each row as long as ``region`` and
        summing to one.  ``load_split`` defaults to a single uniform
        split.

        Because every member shares the base spec's physical
        configuration, the whole region × placement grid costs **one**
        simulation, and the K member assessments are evaluated once (load
        shares don't change a member's carbon) and reused across all L
        splits instead of paying K·L member assessments.  Returns the
        ordered :class:`~repro.portfolio.result.PortfolioBatchResult`; its
        :meth:`~repro.portfolio.result.PortfolioBatchResult.best` scenario
        is the split whose placed carbon is lowest.
        """
        from repro.portfolio import PortfolioBatchResult, PortfolioSpec

        regions = list(region)
        if not regions:
            raise ValueError("sweep_portfolio needs at least one region")
        splits = ([list(split) for split in load_split]
                  if load_split is not None else [None])
        if not splits:
            raise ValueError("load_split, when given, needs at least one split")
        portfolio_specs = [
            PortfolioSpec.from_regions(
                regions, base_spec=self._base_spec, load_shares=shares,
                name=f"{name}-{index}" if len(splits) > 1 else name)
            for index, shares in enumerate(splits)
        ]
        # Member evaluations are shared by every split of this call (load
        # shares don't change a member's carbon), memoised lazily so a
        # fully catalog-served sweep still simulates nothing.
        state: Dict[str, object] = {}
        results = [
            self._recorder.run(
                "portfolio", spec.to_dict(),
                lambda spec=spec: self._assemble_portfolio(spec, state))
            if self._recorder is not None
            else self._assemble_portfolio(spec, state)
            for spec in portfolio_specs
        ]
        return PortfolioBatchResult(results=tuple(results))

    def _assemble_portfolio(self, portfolio_spec, state: Dict[str, object]):
        """One portfolio result from the (memoised) member evaluations."""
        from repro.portfolio.result import PortfolioMemberResult, PortfolioResult
        from repro.portfolio.runner import clean_marginal_intensities

        if "members" not in state:
            member_specs = [member.effective_spec()
                            for member in portfolio_spec.members]
            # Fail on any typo'd component (including an unknown region
            # binding) before any member simulates.
            for spec in member_specs:
                resolve_spec_components(spec)
            member_results = self._evaluate_members(member_specs)
            clean = clean_marginal_intensities(
                self._substrates, member_specs, member_results)
            state["members"] = (member_results, clean)
        member_results, clean = state["members"]
        members = tuple(
            PortfolioMemberResult(
                member=member,
                result=result,
                marginal_intensity_g_per_kwh=(
                    result.spec.carbon_intensity_g_per_kwh),
                clean_marginal_intensity_g_per_kwh=clean[index],
            )
            for index, (member, result) in enumerate(
                zip(portfolio_spec.members, member_results))
        )
        return PortfolioResult(spec=portfolio_spec, members=members)

    def _evaluate_members(
        self, specs: List[AssessmentSpec]
    ) -> List[AssessmentResult]:
        """Columnar member evaluations (members are never catalogued
        individually, mirroring PortfolioRunner._run_members)."""
        plan = compile_sweep(specs)
        results: List[Optional[AssessmentResult]] = [None] * len(specs)
        for group in plan.groups:
            evaluated = evaluate_assessment_group(
                [specs[i] for i in group], self._substrates)
            for i, result in zip(group, evaluated):
                results[i] = result
        for i, disposition in enumerate(plan.dispositions):
            if disposition != COLUMNAR:
                results[i] = Assessment(
                    specs[i], substrates=self._substrates).run()
        return results

    # -- sampled (ensemble) scenarios ----------------------------------------------

    def ensemble(
        self,
        distributions: Optional[Dict[str, object]] = None,
        *,
        n_samples: int = 1000,
        seed: int = 0,
    ):
        """Run a sampled ensemble instead of a cartesian grid.

        Where :meth:`sweep` enumerates scenario corners, ``ensemble``
        draws ``n_samples`` joint scenarios from the given field
        distributions (:mod:`repro.uncertainty.distributions`; the paper's
        input envelope when omitted) and pushes them through the analysis
        stage in one vectorized pass over this runner's shared substrates
        — the simulation still happens exactly once.  Returns the
        quantile-native :class:`~repro.uncertainty.result.EnsembleResult`.
        """
        from repro.uncertainty.ensemble import EnsembleRunner

        runner = EnsembleRunner(self._base_spec, distributions,
                                substrates=self._substrates,
                                catalog=self._recorder)
        return runner.run(n_samples=n_samples, seed=seed)

    def _prepare_snapshots(self, specs: Sequence[AssessmentSpec],
                           kind: str = "assess") -> None:
        """Simulate each distinct physical configuration exactly once.

        With ``max_workers`` > 1 the distinct simulations run
        concurrently; the substrate cache guarantees no configuration is
        simulated twice even under concurrency.  Scenarios the configured
        catalog can serve are excluded first — a fully catalogued sweep
        prepares nothing.  A simulation failure cancels the outstanding
        sibling simulations and propagates immediately (the earliest
        failure in submission order, so the surfaced error is
        deterministic).
        """
        if self._recorder is not None:
            specs = [spec for spec in specs
                     if not self._recorder.can_serve(kind, spec.to_dict())]
        unique: Dict[tuple, AssessmentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.physical_key(), spec)
        distinct = list(unique.values())
        if self._max_workers > 1 and len(distinct) > 1:
            workers = min(self._max_workers, len(distinct))
            pool = ThreadPoolExecutor(max_workers=workers)
            futures = [pool.submit(self._substrates.snapshot, spec)
                       for spec in distinct]
            try:
                for future in futures:
                    future.result()
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                raise
            pool.shutdown(wait=True)
        else:
            for spec in distinct:
                self._substrates.snapshot(spec)


__all__ = [
    "BatchAssessmentRunner",
    "BatchResult",
    "TemporalBatchResult",
    "SWEEP_AXES",
    "TEMPORAL_ONLY_AXES",
]
