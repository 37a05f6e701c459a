"""The shared columnar analysis kernel: one substrate, many scenarios.

Two execution engines push batches of scenarios through the cheap analysis
stage of the pipeline without paying one Python ``Assessment`` per point.
Both read the embodied term (equation 4) from the snapshot's
:class:`~repro.core.embodied.EmbodiedColumns`, never from a per-asset list:

* the **ensemble kernel** (:func:`evaluate_ensemble_columns`) contracts a
  cached snapshot against sampled scenario columns for the uncertainty
  engine.  It mirrors the oracle's float operations closely (quantiles
  agree to ~1e-15 relative; the benchmark pins <= 1e-9) but factors the
  embodied sum algebraically, so it is *near*-exact, which is all a
  quantile needs.
* the **sweep kernel** (:func:`evaluate_assessment_group` /
  :func:`evaluate_temporal_group`) evaluates a whole physical group of a
  parameter grid in one vectorised pass and materialises genuine
  per-scenario result objects.  Its active term replays the reference
  pipeline's float operations *exactly* (same operand order); its
  embodied term is the very calculator ``Assessment.run_live`` calls,
  once per distinct (``per_server_kgco2``, ``lifetime_years``) pair.  So
  every produced :class:`~repro.api.result.AssessmentResult` is
  bit-identical to what ``Assessment.run_live`` returns for the same spec,
  and serialised payloads (catalog keys, goldens) are byte-identical.

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

from repro.core.embodied import EmbodiedCarbonCalculator, LinearAmortization
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

from repro.api.assessment import (
    Assessment,
    resolve_spec_components,
    with_resolved_intensity,
)
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
    # their own fixed lifetime and contribute a constant.  The sums run
    # over Python floats with the builtin ``sum``, in asset order.
    period_s = spec.duration_hours * SECONDS_PER_HOUR
    columns = assessment.embodied_columns()
    is_node = np.array([name == "nodes" for name in columns.components],
                       dtype=bool)[columns.component_codes]
    node_kg = sum(columns.embodied_kgco2[is_node].tolist())
    node_count = int(np.count_nonzero(is_node))
    network_kg = sum(
        kg * min(period_s / (lifetime_years * SECONDS_PER_YEAR), 1.0)
        for kg, lifetime_years in zip(columns.embodied_kgco2[~is_node].tolist(),
                                      columns.lifetime_years[~is_node].tolist()))

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
    # Eligibility reads only these fields: decide once per combination.
    eligible: Dict[Tuple[bool, str, str], bool] = {}
    for index, spec in enumerate(specs):
        key = (spec.per_server_kgco2 is None, spec.embodied_estimator,
               spec.amortization)
        if key not in eligible:
            eligible[key] = columnar_eligible(spec)
        if recorder is not None and recorder.can_serve(kind, spec.to_dict()):
            dispositions.append(SERVED)
        elif eligible[key]:
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
    The active term replays ``Assessment.run_live``'s float operations in
    the reference operand order — numpy's elementwise IEEE-754 double ops
    match CPython's scalar ops bit-for-bit when the per-element operation
    order does.  The embodied term is the calculator ``run_live`` uses,
    called once per distinct (``per_server_kgco2``, ``lifetime_years``)
    pair in the group.  So the returned results are bit-identical to the
    per-spec loop, not merely close.
    """
    specs = list(specs)
    if not specs:
        return []
    # Resolution reads only registry names (and whether the override and
    # the intensity are set): resolve each distinct combination once.
    policy = None
    resolved_names = set()
    for spec in specs:
        names = (spec.amortization, spec.embodied_estimator, spec.inventory,
                 spec.grid, spec.per_server_kgco2 is None,
                 spec.carbon_intensity_g_per_kwh is None)
        if names not in resolved_names:
            resolved_names.add(names)
            factory = resolve_spec_components(spec)
            if policy is None:
                policy = factory()

    # One snapshot serves the whole group; the cache counts one lookup per
    # spec, so its hit statistics match the reference loop's.
    snapshot = substrates.shared_snapshot(specs)
    grid_intensity: Dict[str, float] = {}
    resolved: List[float] = []
    for spec in specs:
        value = spec.carbon_intensity_g_per_kwh
        if value is None:
            value = grid_intensity.get(spec.grid)
            if value is None:
                series = substrates.intensity_series(spec.grid)
                value = series.reference_values()["medium"].g_per_kwh
                grid_intensity[spec.grid] = value
        resolved.append(value)

    energy = snapshot.active_energy_input()
    period = energy.period
    node_kwh = energy.total_node_kwh
    network_kwh = energy.network_energy_kwh
    it_kwh = energy.it_energy_kwh

    # Active term, once per distinct (intensity, PUE) pair, in the
    # calculator's exact operand order: the overhead is IT energy times
    # (PUE - 1), split by the stock fraction model, and each component's
    # kWh is priced through the Energy round-trip (kWh -> joules -> kWh)
    # the quantity layer performs.
    active_pairs = list(dict.fromkeys(
        (value, spec.pue) for value, spec in zip(resolved, specs)))
    intensity = np.array([value for value, _ in active_pairs], dtype=np.float64)
    pue = np.array([value for _, value in active_pairs], dtype=np.float64)
    fractions = FacilityOverheadModel()
    overhead = it_kwh * (pue - 1.0)
    cooling = overhead * fractions.cooling_fraction
    distribution = overhead * fractions.distribution_fraction
    building = overhead * fractions.building_fraction
    facility = it_kwh + (cooling + distribution + building)

    def _price_kg(energy_kwh):
        grams = ((energy_kwh * JOULES_PER_KWH) / JOULES_PER_KWH) * intensity
        return grams / GRAMS_PER_KILOGRAM

    columns = zip(facility.tolist(), intensity.tolist(), pue.tolist(),
                  _price_kg(node_kwh).tolist(), _price_kg(network_kwh).tolist(),
                  _price_kg(cooling).tolist(), _price_kg(distribution).tolist(),
                  _price_kg(building).tolist())
    actives = {
        pair: ActiveCarbonResult(
            period=period,
            it_energy_kwh=it_kwh,
            facility_energy_kwh=facility_kwh,
            carbon_intensity_g_per_kwh=intensity_g,
            pue=pue_value,
            carbon_by_component_kg={
                "nodes": nodes_kg,
                "network": network_kg,
                "cooling": cooling_kg,
                "power_distribution": distribution_kg,
                "building": building_kg,
            },
        )
        for pair, (facility_kwh, intensity_g, pue_value, nodes_kg, network_kg,
                   cooling_kg, distribution_kg, building_kg)
        in zip(active_pairs, columns)
    }

    # Embodied term: the specs differ only in the per-server override and
    # the lifetime, so each distinct pair is evaluated once.
    calculator = EmbodiedCarbonCalculator(policy)
    embodied_by_pair: Dict[Tuple[Optional[float], float], EmbodiedCarbonResult] = {}

    results: List[AssessmentResult] = []
    for value, spec in zip(resolved, specs):
        pair = (spec.per_server_kgco2, spec.lifetime_years)
        embodied = embodied_by_pair.get(pair)
        if embodied is None:
            embodied = calculator.evaluate(
                snapshot.embodied_columns(*pair), period)
            embodied_by_pair[pair] = embodied
        results.append(AssessmentResult(
            spec=with_resolved_intensity(spec, value),
            snapshot=snapshot,
            total=TotalCarbonResult(active=actives[value, spec.pue],
                                    embodied=embodied),
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
