"""The ``Assessment`` façade: one front door for the whole pipeline.

Every workflow used to hand-wire the same chain — build the inventory,
simulate and measure the workload, pick an intensity, evaluate the
active+embodied model, assemble the report — from five subpackages.
:class:`Assessment` owns that chain.  It is configured declaratively
(:meth:`Assessment.from_spec`) or fluently (the ``with_*`` builders, each
returning a new assessment), resolves every pluggable component through the
:mod:`repro.api.registry`, and runs against a shared
:class:`~repro.api.substrates.SubstrateCache` so repeated runs never repeat
the expensive simulation::

    from repro.api import Assessment, default_spec

    result = Assessment.from_spec(default_spec(node_scale=0.05)).run()
    print(result.total_kg)

    cheap_grid = (Assessment.from_spec(default_spec(node_scale=0.05))
                  .with_grid(50.0).with_pue(1.1).run())

The default spec reproduces the historical ``SnapshotExperiment`` +
``evaluate_model`` path exactly (same configuration, same seeds, same
floating-point operations).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.core.embodied import EmbodiedAsset, EmbodiedColumns
from repro.core.model import CarbonModel, SnapshotInputs
from repro.units.quantities import CarbonIntensity

from repro.api.registry import (
    AMORTIZATION_POLICIES,
    EMBODIED_ESTIMATORS,
    GRID_PROVIDERS,
    INVENTORY_SOURCES,
)
from repro.api.result import AssessmentResult
from repro.api.spec import CATALOG_ESTIMATOR, AssessmentSpec, default_spec
from repro.api.substrates import SubstrateCache, shared_substrates

IntensityLike = Union[str, float, int, CarbonIntensity]

#: Sentinel distinguishing "not passed" from an explicit ``None`` (= clear).
_UNSET = object()


def _coerce_catalog(catalog):
    """Normalise a ``catalog=`` argument to a CatalogRecorder (or None).

    The import is deferred: :mod:`repro.catalog` imports the API layer,
    so a module-level import here would be circular — and the common
    no-catalog path should not pay for loading the catalog machinery.
    """
    if catalog is None:
        return None
    from repro.catalog.record import CatalogRecorder

    return CatalogRecorder.coerce(catalog)


def resolve_spec_components(spec: AssessmentSpec):
    """Resolve every registry name a spec will need, loudly and early.

    A typo'd component must fail in milliseconds, not after a full
    simulation.  Shared by :meth:`Assessment.run` and the portfolio
    runner's pre-pass, so the resolution rules (including the
    ``per_server_kgco2`` / catalog-estimator special case and the
    grid-only-when-unpinned rule) live in one place.  Returns the
    amortisation-policy factory — the one resolution callers reuse.
    """
    policy_factory = AMORTIZATION_POLICIES.get(spec.amortization)
    if spec.per_server_kgco2 is None and spec.embodied_estimator != CATALOG_ESTIMATOR:
        EMBODIED_ESTIMATORS.get(spec.embodied_estimator)
    INVENTORY_SOURCES.get(spec.inventory)
    if spec.carbon_intensity_g_per_kwh is None:
        GRID_PROVIDERS.get(spec.grid)
    return policy_factory


class Assessment:
    """A configured assessment, ready to run.

    Parameters
    ----------
    spec:
        The declarative configuration; defaults to the paper's full-scale
        snapshot (:func:`~repro.api.spec.default_spec`).
    substrates:
        The substrate cache to run against; defaults to the process-wide
        shared cache, so independent assessments of the same physical
        configuration reuse one simulation.
    catalog:
        Opt-in run cataloguing: a :class:`~repro.catalog.RunCatalog`, a
        :class:`~repro.catalog.CatalogRecorder` (to control tags and
        serve/record policy), or just a database path.  :meth:`run` then
        records its result — and a repeat of an already-catalogued spec
        is *served* from the catalog with zero simulation, bit-identical
        to the recorded run.
    """

    def __init__(
        self,
        spec: Optional[AssessmentSpec] = None,
        *,
        substrates: Optional[SubstrateCache] = None,
        catalog=None,
    ):
        self._spec = spec or default_spec()
        self._substrates = substrates if substrates is not None else shared_substrates()
        self._recorder = _coerce_catalog(catalog)

    @classmethod
    def from_spec(
        cls,
        spec: AssessmentSpec,
        *,
        substrates: Optional[SubstrateCache] = None,
        catalog=None,
    ) -> "Assessment":
        """An assessment for the given spec."""
        return cls(spec, substrates=substrates, catalog=catalog)

    @property
    def spec(self) -> AssessmentSpec:
        return self._spec

    @property
    def substrates(self) -> SubstrateCache:
        return self._substrates

    # -- fluent builders (each returns a new Assessment) ---------------------------

    def _replace(self, **changes) -> "Assessment":
        return Assessment(self._spec.replace(**changes),
                          substrates=self._substrates, catalog=self._recorder)

    def with_grid(self, grid: IntensityLike) -> "Assessment":
        """Set the grid intensity: a registered provider name or a fixed value.

        A string selects a registered grid provider (whose Medium reference
        intensity prices the active term); a number or
        :class:`~repro.units.quantities.CarbonIntensity` fixes the intensity
        directly.
        """
        if isinstance(grid, str):
            return self._replace(grid=grid, carbon_intensity_g_per_kwh=None)
        if isinstance(grid, CarbonIntensity):
            return self._replace(carbon_intensity_g_per_kwh=grid.g_per_kwh)
        return self._replace(carbon_intensity_g_per_kwh=float(grid))

    def with_pue(self, pue: float) -> "Assessment":
        """Set the facility PUE."""
        return self._replace(pue=float(pue))

    def with_embodied(
        self,
        estimator: Optional[str] = None,
        *,
        per_server_kgco2=_UNSET,
        lifetime_years: Optional[float] = None,
    ) -> "Assessment":
        """Configure the embodied term: estimator, uniform override, lifetime.

        Pass ``per_server_kgco2=None`` explicitly to clear a previous
        uniform override.
        """
        changes = {}
        if estimator is not None:
            changes["embodied_estimator"] = estimator
        if per_server_kgco2 is not _UNSET:
            changes["per_server_kgco2"] = per_server_kgco2
        if lifetime_years is not None:
            changes["lifetime_years"] = float(lifetime_years)
        return self._replace(**changes)

    def with_amortization(self, policy: str) -> "Assessment":
        """Set the registered amortisation policy."""
        return self._replace(amortization=policy)

    def with_inventory(self, inventory: str) -> "Assessment":
        """Set the registered inventory source."""
        return self._replace(inventory=inventory)

    def scaled(self, node_scale: float) -> "Assessment":
        """Shrink the fleet proportionally (minimum two nodes per site)."""
        return self._replace(node_scale=float(node_scale))

    # -- running ---------------------------------------------------------------------

    def resolved_intensity_g_per_kwh(self) -> float:
        """The intensity the active term will use, resolving the grid provider."""
        if self._spec.carbon_intensity_g_per_kwh is not None:
            return self._spec.carbon_intensity_g_per_kwh
        series = self._substrates.intensity_series(self._spec.grid)
        return series.reference_values()["medium"].g_per_kwh

    def run(self) -> AssessmentResult:
        """Run the full pipeline and return the unified result.

        With ``catalog=`` configured, a previously catalogued run of this
        exact spec is served straight from the catalog (zero simulation,
        as a :class:`~repro.catalog.ServedAssessmentResult`); otherwise
        the live pipeline runs and its result is recorded.
        """
        if self._recorder is not None:
            return self._recorder.run_assessment(self)
        return self.run_live()

    def run_live(self) -> AssessmentResult:
        """Run the live pipeline unconditionally (never catalog-served)."""
        spec = self._spec
        policy_factory = resolve_spec_components(spec)
        intensity = self.resolved_intensity_g_per_kwh()
        snapshot = self._substrates.snapshot(spec)
        columns = self._columns(snapshot, spec)
        policy = policy_factory()
        model = CarbonModel(
            carbon_intensity=CarbonIntensity(intensity),
            pue=spec.pue,
            amortization=policy,
        )
        total = model.evaluate(
            SnapshotInputs(energy=snapshot.active_energy_input(), assets=columns)
        )
        return AssessmentResult(
            spec=with_resolved_intensity(spec, intensity),
            snapshot=snapshot,
            total=total,
        )

    # -- embodied asset assembly ------------------------------------------------------

    def embodied_columns(self) -> EmbodiedColumns:
        """The resolved embodied assets for this spec, as columns.

        Resolves the spec's estimator / uniform override against the
        (cached) snapshot exactly as :meth:`run` does — the public seam the
        uncertainty engine contracts its embodied columns against.
        """
        return self._columns(self._substrates.snapshot(self._spec), self._spec)

    def embodied_assets(self) -> List[EmbodiedAsset]:
        """:meth:`embodied_columns` as a list of assets."""
        return self.embodied_columns().assets()

    def _columns(self, snapshot, spec: AssessmentSpec) -> EmbodiedColumns:
        if spec.per_server_kgco2 is not None or spec.embodied_estimator == CATALOG_ESTIMATOR:
            # The engine's native path (catalog datasheet figures, or the
            # uniform Table 4 override) — bit-identical to the historical
            # SnapshotExperiment pipeline.
            return snapshot.embodied_columns(spec.per_server_kgco2, spec.lifetime_years)
        estimator = EMBODIED_ESTIMATORS.create(spec.embodied_estimator)
        catalog = self._substrates.catalog()
        return snapshot.embodied_columns(
            lifetime_years=spec.lifetime_years,
            node_kgco2_resolver=lambda model_name: float(
                estimator.node_total_kgco2(catalog.node(model_name))))


def with_resolved_intensity(spec: AssessmentSpec, intensity: float) -> AssessmentSpec:
    """``spec`` with its carbon intensity pinned to the resolved value.

    A spec that already pins it is returned as it is: the resolved value is
    that field, so a copy would only repeat the validation.
    """
    if spec.carbon_intensity_g_per_kwh is not None:
        return spec
    return spec.replace(carbon_intensity_g_per_kwh=intensity)


__all__ = ["Assessment", "resolve_spec_components", "with_resolved_intensity"]
