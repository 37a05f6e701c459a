"""The shared columnar analysis kernel: one substrate, many scenarios.

Two execution engines push batches of scenarios through the cheap analysis
stage of the pipeline without paying one Python ``Assessment`` per point:

* the **ensemble kernel** (:func:`evaluate_ensemble_columns`) contracts a
  cached snapshot against sampled scenario columns for the uncertainty
  engine.  It mirrors the oracle's float operations closely (quantiles
  agree to ~1e-15 relative; the benchmark pins <= 1e-9) but factors the
  embodied sum algebraically, so it is *near*-exact, which is all a
  quantile needs.
* the **sweep kernel** (:func:`evaluate_assessment_group` /
  :func:`evaluate_temporal_group`) evaluates a whole physical group of a
  parameter grid in one vectorised pass and materialises genuine
  per-scenario result objects.  Unlike the ensemble kernel it replays the
  reference pipeline's float operations *exactly* — same operand order,
  same per-asset accumulation — so every produced
  :class:`~repro.api.result.AssessmentResult` is bit-identical to what
  ``Assessment.run_live`` returns for the same spec, and serialised
  payloads (catalog keys, goldens) are byte-identical.

:func:`compile_sweep` is the planner in front of the sweep kernel: it
partitions expanded specs into catalog-served points, columnar groups
(grouped by :meth:`~repro.api.spec.AssessmentSpec.physical_key` or a
caller-supplied key), and per-spec fallback points for scenarios the
columns cannot absorb (non-linear amortisation, or a named embodied
estimator without a uniform override) — mirroring the ensemble engine's
own choice between its columnar pass and its per-sample loop.
:data:`~repro.api.spec.COLUMNAR_SWEEP_FIELDS` lists the spec fields the
columns absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.embodied import LinearAmortization
from repro.core.results import (
    ActiveCarbonResult,
    EmbodiedCarbonResult,
    TotalCarbonResult,
)
from repro.power.facility import FacilityOverheadModel
from repro.units.constants import (
    GRAMS_PER_KILOGRAM,
    JOULES_PER_KWH,
    SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
)

from repro.api.assessment import Assessment, resolve_spec_components
from repro.api.registry import AMORTIZATION_POLICIES
from repro.api.result import AssessmentResult
from repro.api.spec import CATALOG_ESTIMATOR, AssessmentSpec
from repro.api.substrates import SubstrateCache

# -- the ensemble kernel (moved verbatim from EnsembleRunner) ----------------------


def validate_sample_columns(samples) -> None:
    """Enforce the spec fields' domains on whole sampled columns (the
    oracle gets this per sample from AssessmentSpec validation)."""
    domains = {
        "carbon_intensity_g_per_kwh": (
            lambda c: (c >= 0.0).all(), "must be non-negative"),
        "pue": (lambda c: (c >= 1.0).all(), "must be at least 1.0"),
        "per_server_kgco2": (
            lambda c: (c > 0.0).all(), "must be positive"),
        "lifetime_years": (
            lambda c: (c > 0.0).all(), "must be positive"),
    }
    for name, (ok, message) in domains.items():
        if name in samples and not ok(samples.column(name)):
            raise ValueError(
                f"sampled {name} {message}; truncate the distribution "
                "to the field's domain")


def evaluate_ensemble_columns(spec: AssessmentSpec, substrates: SubstrateCache,
                              samples) -> Tuple[np.ndarray, np.ndarray]:
    """Contract the cached substrate against the sampled columns.

    The substrate (snapshot) is computed exactly once per ensemble;
    everything after is broadcast arithmetic mirroring the oracle's
    float operations closely enough that quantiles agree to ~1e-15
    relative (the benchmark pins <= 1e-9).  Returns the
    ``(active_kg, embodied_kg)`` sample columns.
    """
    n = samples.n_samples
    validate_sample_columns(samples)
    assessment = Assessment(spec, substrates=substrates)
    snapshot = substrates.snapshot(spec)
    energy = snapshot.active_energy_input()

    def column_or(name: str, fallback: float) -> np.ndarray:
        if name in samples:
            return samples.column(name)
        return np.full(n, float(fallback))

    if "carbon_intensity_g_per_kwh" in samples:
        intensity = samples.column("carbon_intensity_g_per_kwh")
    else:
        intensity = np.full(n, assessment.resolved_intensity_g_per_kwh())
    pue = column_or("pue", spec.pue)

    # Active term: facility energy is IT energy plus the PUE overhead,
    # each kWh priced at the sampled intensity (grams -> kg).
    it_kwh = energy.it_energy_kwh
    active_kg = intensity * (it_kwh + it_kwh * (pue - 1.0)) / 1000.0

    # Embodied term under linear amortisation: every node asset shares
    # the sampled lifetime, so the per-asset min(share, 1) clamp
    # distributes over the fleet sum; network fabrics amortise over
    # their own fixed lifetime and contribute a constant.
    period_s = spec.duration_hours * SECONDS_PER_HOUR
    assets = assessment.embodied_assets()
    node_kg = sum(a.embodied_kgco2 for a in assets if a.component == "nodes")
    node_count = sum(1 for a in assets if a.component == "nodes")
    network_kg = sum(
        a.embodied_kgco2 * min(
            period_s / (a.lifetime_years * SECONDS_PER_YEAR), 1.0)
        for a in assets if a.component != "nodes")

    lifetime = column_or("lifetime_years", spec.lifetime_years)
    share = np.minimum(period_s / (lifetime * SECONDS_PER_YEAR), 1.0)
    if "per_server_kgco2" in samples:
        node_total = samples.column("per_server_kgco2") * node_count
    else:
        node_total = np.full(n, float(node_kg))
    embodied_kg = node_total * share + network_kg
    return active_kg, embodied_kg


# -- the sweep planner --------------------------------------------------------------

#: Dispositions :func:`compile_sweep` assigns to each grid point.
SERVED = "served"
COLUMNAR = "columnar"
FALLBACK = "fallback"


def columnar_eligible(spec: AssessmentSpec) -> bool:
    """Whether the sweep kernel can evaluate this spec bit-exactly.

    Columnar evaluation needs the embodied term to be the engine's native
    path (a uniform ``per_server_kgco2`` override, or the catalog
    estimator) under genuinely linear amortisation.  A named estimator
    without an override, or a non-linear (or re-registered "linear")
    policy, falls back to the per-spec reference loop.
    """
    if spec.per_server_kgco2 is None and spec.embodied_estimator != CATALOG_ESTIMATOR:
        return False
    try:
        policy = AMORTIZATION_POLICIES.get(spec.amortization)()
    except KeyError:
        # Let the fallback path raise the registry's own error.
        return False
    return type(policy) is LinearAmortization


@dataclass(frozen=True)
class SweepPlan:
    """The execution plan :func:`compile_sweep` produced for a grid.

    Attributes
    ----------
    specs:
        The expanded grid, in sweep order.
    dispositions:
        Per-spec disposition (:data:`SERVED`, :data:`COLUMNAR` or
        :data:`FALLBACK`), parallel to ``specs``.
    groups:
        Index tuples into ``specs``, one per columnar group; every spec in
        a group shares a substrate (and, for temporal sweeps, one aligned
        trace pair).
    """

    specs: Tuple[AssessmentSpec, ...]
    dispositions: Tuple[str, ...]
    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.specs) != len(self.dispositions):
            raise ValueError("dispositions must parallel specs")

    def count(self, disposition: str) -> int:
        """How many grid points carry the given disposition."""
        return sum(1 for d in self.dispositions if d == disposition)


def compile_sweep(
    specs: Sequence[AssessmentSpec],
    *,
    recorder=None,
    kind: str = "assess",
    group_key: Optional[Callable[[AssessmentSpec], object]] = None,
) -> SweepPlan:
    """Plan a grid: served points, columnar groups, fallback points.

    Points the ``recorder`` can already serve are excluded from
    evaluation; eligible points are grouped under ``group_key`` (the
    physical key by default, so each group shares one substrate); the
    rest fall back to the per-spec reference loop.
    """
    specs = tuple(specs)
    key_of = group_key if group_key is not None else (
        lambda spec: spec.physical_key())
    dispositions: List[str] = []
    groups: Dict[object, List[int]] = {}
    for index, spec in enumerate(specs):
        if recorder is not None and recorder.can_serve(kind, spec.to_dict()):
            dispositions.append(SERVED)
        elif columnar_eligible(spec):
            dispositions.append(COLUMNAR)
            groups.setdefault(key_of(spec), []).append(index)
        else:
            dispositions.append(FALLBACK)
    return SweepPlan(
        specs=specs,
        dispositions=tuple(dispositions),
        groups=tuple(tuple(group) for group in groups.values()),
    )


# -- the sweep kernel (bit-exact) ---------------------------------------------------


def evaluate_assessment_group(
    specs: Sequence[AssessmentSpec], substrates: SubstrateCache,
) -> List[AssessmentResult]:
    """Evaluate one columnar group in a single vectorised pass.

    Every spec must share a substrate (equal physical keys) and satisfy
    :func:`columnar_eligible`; the caller (the planner) guarantees both.
    The arithmetic replays ``Assessment.run_live``'s float operations in
    the reference operand order — numpy's elementwise IEEE-754 double ops
    match CPython's scalar ops bit-for-bit when the per-element operation
    order does — so the returned results are bit-identical to the
    per-spec loop, not merely close.
    """
    specs = list(specs)
    if not specs:
        return []
    policy = None
    for spec in specs:
        factory = resolve_spec_components(spec)
        if policy is None:
            policy = factory()

    # One snapshot serves the whole group; calling through the cache per
    # spec keeps the hit statistics identical to the reference loop.
    snapshot = None
    resolved: List[float] = []
    for spec in specs:
        snap = substrates.snapshot(spec)
        if snapshot is None:
            snapshot = snap
        value = spec.carbon_intensity_g_per_kwh
        if value is None:
            series = substrates.intensity_series(spec.grid)
            value = series.reference_values()["medium"].g_per_kwh
        resolved.append(value)

    n = len(specs)
    intensity = np.array(resolved, dtype=np.float64)
    pue = np.array([spec.pue for spec in specs], dtype=np.float64)
    lifetime = np.array([spec.lifetime_years for spec in specs],
                        dtype=np.float64)
    override = np.array([spec.per_server_kgco2 is not None for spec in specs],
                        dtype=bool)
    per_server = np.array(
        [spec.per_server_kgco2 if spec.per_server_kgco2 is not None else 0.0
         for spec in specs], dtype=np.float64)

    energy = snapshot.active_energy_input()
    period = energy.period
    period_s = period.seconds
    node_kwh = energy.total_node_kwh
    network_kwh = energy.network_energy_kwh
    it_kwh = energy.it_energy_kwh

    # Active term, in the calculator's exact operand order: the overhead
    # is IT energy times (PUE - 1), split by the stock fraction model,
    # and each component's kWh is priced through the Energy round-trip
    # (kWh -> joules -> kWh) the quantity layer performs.
    fractions = FacilityOverheadModel()
    overhead = it_kwh * (pue - 1.0)
    cooling = overhead * fractions.cooling_fraction
    distribution = overhead * fractions.distribution_fraction
    building = overhead * fractions.building_fraction
    facility = it_kwh + (cooling + distribution + building)

    def _price_kg(energy_kwh):
        grams = ((energy_kwh * JOULES_PER_KWH) / JOULES_PER_KWH) * intensity
        return grams / GRAMS_PER_KILOGRAM

    nodes_kg = _price_kg(node_kwh)
    network_kg = _price_kg(network_kwh)
    cooling_kg = _price_kg(cooling)
    distribution_kg = _price_kg(distribution)
    building_kg = _price_kg(building)

    # Embodied term.  The asset template is shared by the group: node
    # assets differ across specs only through the per-server override
    # column and the lifetime column (linear amortisation), while
    # non-node assets (network fabrics) amortise over their own fixed
    # lifetimes and charge the same constant to every spec.  The
    # per-component totals accumulate asset by asset in template order,
    # exactly like EmbodiedCarbonCalculator.evaluate.
    assets = snapshot.embodied_assets(None, specs[0].lifetime_years)
    clamped = np.minimum(period_s / (lifetime * SECONDS_PER_YEAR), 1.0)
    component_order: List[str] = []
    constant_kg: Dict[str, float] = {}
    node_total = np.zeros(n, dtype=np.float64)
    charged_cache: Dict[float, np.ndarray] = {}
    for asset in assets:
        if asset.component not in component_order:
            component_order.append(asset.component)
        if asset.component == "nodes":
            column = charged_cache.get(asset.embodied_kgco2)
            if column is None:
                kg = np.where(override, per_server, asset.embodied_kgco2)
                column = kg * clamped
                charged_cache[asset.embodied_kgco2] = column
            node_total += column
        else:
            charged = policy.period_kgco2(asset, period)
            constant_kg[asset.component] = (
                constant_kg.get(asset.component, 0.0) + charged)

    installed_cache: Dict[Optional[float], float] = {}

    def _installed_kg(per_server_kgco2: Optional[float]) -> float:
        total = installed_cache.get(per_server_kgco2)
        if total is None:
            total = 0.0
            for asset in assets:
                if per_server_kgco2 is not None and asset.component == "nodes":
                    total += per_server_kgco2
                else:
                    total += asset.embodied_kgco2
            installed_cache[per_server_kgco2] = total
        return total

    results: List[AssessmentResult] = []
    for j, spec in enumerate(specs):
        active = ActiveCarbonResult(
            period=period,
            it_energy_kwh=it_kwh,
            facility_energy_kwh=float(facility[j]),
            carbon_intensity_g_per_kwh=float(intensity[j]),
            pue=spec.pue,
            carbon_by_component_kg={
                "nodes": float(nodes_kg[j]),
                "network": float(network_kg[j]),
                "cooling": float(cooling_kg[j]),
                "power_distribution": float(distribution_kg[j]),
                "building": float(building_kg[j]),
            },
        )
        by_component = {
            component: (float(node_total[j]) if component == "nodes"
                        else constant_kg[component])
            for component in component_order
        }
        embodied = EmbodiedCarbonResult(
            period=period,
            carbon_by_component_kg=by_component,
            total_installed_kg=_installed_kg(spec.per_server_kgco2),
            amortization_policy=policy.name,
        )
        results.append(AssessmentResult(
            spec=spec.replace(carbon_intensity_g_per_kwh=resolved[j]),
            snapshot=snapshot,
            total=TotalCarbonResult(active=active, embodied=embodied),
        ))
    return results


# -- the temporal sweep kernel ------------------------------------------------------


def temporal_group_key(spec: AssessmentSpec):
    """The grouping key for temporal sweeps: specs sharing it share one
    aligned (power, intensity) trace pair.

    Alignment depends on the physical substrate, the trace configuration
    (``trace_source``, ``temporal_resolution_s``, ``alignment``) and the
    intensity source (``grid`` / fixed intensity) — but not on the
    analysis fields (PUE, lifetime, embodied) or the scenario transforms
    (shift, deferral), which are applied per spec after alignment.  Those
    are normalised to their defaults here so a shift x PUE grid collapses
    into one group.  (Trace providers receive the spec; the registry
    contract is that they read only the fields retained by this key,
    which every stock provider honours.)
    """
    return spec.replace(
        pue=1.3,
        lifetime_years=5.0,
        per_server_kgco2=None,
        shift_hours=0.0,
        defer_fraction=0.0,
        amortization="linear",
        embodied_estimator=CATALOG_ESTIMATOR,
    )


def evaluate_temporal_group(
    specs: Sequence[AssessmentSpec], substrates: SubstrateCache,
) -> List["object"]:
    """Evaluate one temporal columnar group against one aligned trace pair.

    Every spec must share a :func:`temporal_group_key`.  The statics come
    from :func:`evaluate_assessment_group` (bit-identical to the
    reference), the traces are aligned once, and each distinct
    (shift, defer, PUE) scenario is integrated once — the n x T band
    machinery the temporal ensemble engine already relies on.
    """
    from repro.api.temporal import TemporalAssessment, TemporalAssessmentResult
    from repro.temporal.integrate import integrate_power_intensity
    from repro.temporal.scenarios import transformed_power

    from repro.api.registry import TRACE_PROVIDERS

    specs = list(specs)
    if not specs:
        return []
    # Fail on a typo'd trace provider before simulating, exactly like
    # TemporalAssessment.run_live.
    for spec in specs:
        TRACE_PROVIDERS.get(spec.trace_source)
    statics = evaluate_assessment_group(specs, substrates)
    snapshot = substrates.snapshot(specs[0])
    aligned_power, aligned_intensity = TemporalAssessment(
        specs[0], substrates=substrates).aligned_traces()

    baselines: Dict[float, object] = {}
    profiles: Dict[Tuple[float, float, float], object] = {}
    results = []
    for spec, static in zip(specs, statics):
        baseline = baselines.get(spec.pue)
        if baseline is None:
            baseline = integrate_power_intensity(
                aligned_power, aligned_intensity, pue=spec.pue)
            baselines[spec.pue] = baseline
        scenario_key = (spec.shift_hours, spec.defer_fraction, spec.pue)
        profile = profiles.get(scenario_key)
        if profile is None:
            scenario_power = transformed_power(
                aligned_power, aligned_intensity,
                spec.shift_hours * 3600.0, spec.defer_fraction)
            if scenario_power is aligned_power:
                profile = baseline
            else:
                profile = integrate_power_intensity(
                    scenario_power, aligned_intensity, pue=spec.pue)
            profiles[scenario_key] = profile
        results.append(TemporalAssessmentResult(
            spec=static.spec,
            snapshot=snapshot,
            profile=profile,
            baseline_profile=baseline,
            static=static,
        ))
    return results


__all__ = [
    "COLUMNAR",
    "FALLBACK",
    "SERVED",
    "SweepPlan",
    "columnar_eligible",
    "compile_sweep",
    "evaluate_assessment_group",
    "evaluate_ensemble_columns",
    "evaluate_temporal_group",
    "temporal_group_key",
    "validate_sample_columns",
]
