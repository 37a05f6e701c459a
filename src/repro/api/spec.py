"""The declarative description of one assessment run.

An :class:`AssessmentSpec` names every pluggable component of the pipeline
(inventory source, grid provider, embodied estimator, amortisation policy)
plus the scenario parameters (scale, intensity, PUE, lifetime), and round-
trips losslessly through plain dictionaries and JSON files via
:mod:`repro.io`.  It is the unit of work of the whole API: the
:class:`~repro.api.assessment.Assessment` façade runs one spec, the
:class:`~repro.api.batch.BatchAssessmentRunner` sweeps grids of them, and
``python -m repro assess --spec file.json`` runs one from the shell.

The **physical** fields (inventory, node_scale, duration_hours,
trace_step_s, campaign_seed) determine the expensive simulation substrate;
the remaining **scenario** fields (intensity, PUE, lifetime, embodied
estimate) only affect the cheap carbon-model evaluation.  Specs sharing a
:meth:`~AssessmentSpec.physical_key` can therefore share one simulated
snapshot — the batch runner's main speed lever.

How the substrate is computed — in memory or out of core — is not a spec
field: the simulation chooses it from the fleet size (see
:func:`repro.snapshot.experiment.out_of_core`).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.io.jsonio import PathLike, read_json, write_json
from repro.temporal.align import ALIGNMENT_POLICIES

#: Spec value meaning "use the hardware catalog's embodied figures"
#: (datasheet PCF when declared, bottom-up estimate otherwise) — the
#: engine's native behaviour and the paper's.
CATALOG_ESTIMATOR = "catalog"

#: Numeric spec fields the uncertainty engine may replace with sampled
#: distributions, partitioned by the pipeline stage they act through.
#: ANALYSIS fields only enter the cheap carbon-model evaluation, so an
#: ensemble over them vectorises against one simulated substrate; PHYSICAL
#: fields change the simulation substrate itself (each distinct sampled
#: value costs a simulation, deduplicated by the substrate cache); TEMPORAL
#: fields only act through the time-resolved engine.
ANALYSIS_SAMPLE_FIELDS = (
    "carbon_intensity_g_per_kwh",
    "pue",
    "per_server_kgco2",
    "lifetime_years",
)
PHYSICAL_SAMPLE_FIELDS = ("node_scale", "duration_hours", "trace_step_s")
TEMPORAL_SAMPLE_FIELDS = ("shift_hours", "defer_fraction")

#: Every spec field an UncertainSpec may attach a distribution to.
SAMPLABLE_FIELDS = (
    ANALYSIS_SAMPLE_FIELDS + PHYSICAL_SAMPLE_FIELDS + TEMPORAL_SAMPLE_FIELDS
)

#: Sweep axes the batch runner's columnar engine stacks into column
#: vectors: the analysis fields, plus ``grid`` (each grid point resolves
#: to one scalar reference intensity, which stacks into the intensity
#: column).  Axes outside this set — registry-object axes like
#: ``embodied_estimator``, or physical axes, which change the substrate —
#: either form separate physical groups or fall back to the per-spec
#: reference loop (see :mod:`repro.api.columnar`).
COLUMNAR_SWEEP_FIELDS = ANALYSIS_SAMPLE_FIELDS + ("grid",)

#: Numeric fields stored as ``float``, so ``1`` and ``1.0`` give one spec,
#: one serialised document and one digest.
_FLOAT_FIELDS = frozenset((
    "node_scale", "duration_hours", "trace_step_s",
    "carbon_intensity_g_per_kwh", "pue", "per_server_kgco2",
    "lifetime_years", "temporal_resolution_s", "shift_hours",
    "defer_fraction",
))
_OPTIONAL_FLOAT_FIELDS = frozenset((
    "carbon_intensity_g_per_kwh", "per_server_kgco2", "temporal_resolution_s",
))

#: Field -> (test, message) for every range check; the test is true for a
#: bad value, which fills the message's ``{}``.
_CHECKS = {
    "inventory": (lambda v: not v, "inventory must be non-empty"),
    "node_scale": (lambda v: not 0.0 < v <= 1.0, "node_scale must be in (0, 1]"),
    "duration_hours": (lambda v: v <= 0, "duration_hours must be positive"),
    "trace_step_s": (lambda v: v <= 0, "trace_step_s must be positive"),
    "grid": (lambda v: not v, "grid must be non-empty"),
    "carbon_intensity_g_per_kwh": (lambda v: v is not None and v < 0,
                                   "carbon_intensity_g_per_kwh must be non-negative"),
    "pue": (lambda v: v < 1.0, "pue must be at least 1.0"),
    "embodied_estimator": (lambda v: not v, "embodied_estimator must be non-empty"),
    "per_server_kgco2": (lambda v: v is not None and v <= 0,
                         "per_server_kgco2 must be positive when given"),
    "lifetime_years": (lambda v: v <= 0, "lifetime_years must be positive"),
    "amortization": (lambda v: not v, "amortization must be non-empty"),
    "trace_source": (lambda v: not v, "trace_source must be non-empty"),
    "temporal_resolution_s": (lambda v: v is not None and v <= 0,
                              "temporal_resolution_s must be positive when given"),
    "alignment": (lambda v: v not in ALIGNMENT_POLICIES,
                  "alignment must be one of " + ", ".join(ALIGNMENT_POLICIES)
                  + ", got {!r}"),
    "defer_fraction": (lambda v: not 0.0 <= v < 1.0, "defer_fraction must be in [0, 1)"),
}

_BY_SIZE = "out-of-core storage is now chosen from the fleet size"

#: Fields removed from the spec, mapped to the one value an older document
#: may still carry (the removed field's default, which ``from_dict``
#: drops) and the reason any other value is rejected.
_REMOVED_FIELDS = {
    "scheduler_engine": ("indexed", "the indexed scheduler is the only one"),
    "engine": ("columnar", _BY_SIZE),
    "shard_nodes": (4096, _BY_SIZE),
    "shard_dtype": ("float64", _BY_SIZE),
}


@dataclass(frozen=True)
class AssessmentSpec:
    """Declarative configuration of one assessment.

    Attributes
    ----------
    inventory:
        Registered inventory-source name; ``"iris"`` reproduces the paper's
        six-site snapshot campaign.
    node_scale:
        Proportional fleet shrink factor in (0, 1]; 1.0 is the full fleet.
    duration_hours / trace_step_s / campaign_seed:
        Measurement-window length, utilisation-trace resolution and the
        measurement campaign's noise seed.
    grid:
        Registered grid-provider name used when ``carbon_intensity_g_per_kwh``
        is ``None`` (the provider's Medium reference intensity is used) and
        for any time-resolved reporting.
    carbon_intensity_g_per_kwh:
        Fixed grid carbon intensity for the active term; ``None`` derives it
        from the ``grid`` provider.
    pue:
        Power usage effectiveness of the hosting facilities (>= 1.0).
    embodied_estimator:
        Registered embodied-estimator name; :data:`CATALOG_ESTIMATOR` keeps
        the catalog's datasheet-first figures.
    per_server_kgco2:
        Uniform per-node embodied override (the Table 4 sweep axis); takes
        precedence over ``embodied_estimator``.
    lifetime_years:
        Amortisation lifetime of the fleet.
    amortization:
        Registered amortisation-policy name (``"linear"`` is the paper's).
    trace_source:
        Registered trace-provider name supplying the facility power trace
        for time-resolved assessment (``"measured"`` reconciles the
        simulated per-site traces to the measured energies).
    temporal_resolution_s:
        Interval length of the time-resolved emission profile, in seconds;
        ``None`` uses the coarser of the power and intensity cadences.
    alignment:
        Policy for bringing the power and intensity traces onto one grid
        (``strict``, ``resample`` or ``intersect``; see
        :mod:`repro.temporal.align`).
    shift_hours:
        Carbon-aware scenario: circularly shift the workload this many
        hours within the window (positive = later).
    defer_fraction:
        Carbon-aware scenario: fraction of above-median-intensity energy
        deferred into below-median intervals, in [0, 1).

    Numeric fields other than ``campaign_seed`` are stored as ``float``;
    ``campaign_seed`` must be integral.
    """

    inventory: str = "iris"
    node_scale: float = 1.0
    duration_hours: float = 24.0
    trace_step_s: float = 60.0
    campaign_seed: int = 1234
    grid: str = "uk-november-2022"
    carbon_intensity_g_per_kwh: Optional[float] = 175.0
    pue: float = 1.3
    embodied_estimator: str = CATALOG_ESTIMATOR
    per_server_kgco2: Optional[float] = None
    lifetime_years: float = 5.0
    amortization: str = "linear"
    trace_source: str = "measured"
    temporal_resolution_s: Optional[float] = None
    alignment: str = "resample"
    shift_hours: float = 0.0
    defer_fraction: float = 0.0

    def __post_init__(self):
        self._validate(_FIELD_ORDER)

    def _validate(self, names: Sequence[str]) -> None:
        """Normalise, then range-check, the named fields (in field order).

        Every check reads one field, so a copy of a valid spec needs only
        its changed fields checked (see :meth:`replace`).
        """
        self._normalise_numbers(names)
        for name in names:
            check = _CHECKS.get(name)
            if check is not None:
                bad, message = check
                value = getattr(self, name)
                if bad(value):
                    raise ValueError(message.format(value))

    def _normalise_numbers(self, names: Sequence[str]) -> None:
        """Store floats as finite ``float`` and the seed as ``int``.

        Equal specs must serialise identically: ``1`` and ``1.0`` compare
        equal, but would otherwise give two documents, two catalog
        addresses and two persisted snapshots.  Bools, NaN and infinities
        are rejected: JSON parsers accept ``NaN`` and ``Infinity``, and no
        range check below can catch a NaN.
        """
        for name in names:
            if name not in _FLOAT_FIELDS:
                continue
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FLOAT_FIELDS:
                continue
            if type(value) is not float:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{name} must be a number, got {value!r}")
                try:
                    value = float(value)
                except OverflowError:
                    raise ValueError(
                        f"{name} must be finite, got {value!r}") from None
                object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if "campaign_seed" not in names:
            return
        seed = self.campaign_seed
        if type(seed) is int:
            return
        if isinstance(seed, float) and seed.is_integer():
            seed = int(seed)
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(
                f"campaign_seed must be an integer, got {self.campaign_seed!r}")
        object.__setattr__(self, "campaign_seed", int(seed))

    # -- derived views -----------------------------------------------------------

    def physical_key(self) -> Tuple[Any, ...]:
        """The fields that determine the expensive simulation substrate.

        Two specs with equal physical keys can share one simulated snapshot;
        everything else is a cheap re-evaluation of the carbon model.
        Whether the simulation runs in memory or out of core is itself a
        function of these fields, so it needs no place in the key.
        """
        return (
            self.inventory,
            self.node_scale,
            self.duration_hours,
            self.trace_step_s,
            self.campaign_seed,
        )

    def replace(self, **changes: Any) -> "AssessmentSpec":
        """A copy of the spec with the given fields replaced (validated).

        The unchanged fields were validated with this spec, so only the
        changed ones are checked again.  An unknown name raises
        ``__init__``'s ``TypeError``.
        """
        if not changes.keys() <= _FIELD_INDEX.keys():
            return type(self)(**{**self.__dict__, **changes})
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__)
        spec.__dict__.update(changes)
        spec._validate(sorted(changes, key=_FIELD_INDEX.__getitem__))
        return spec

    # -- dict / JSON round-trip -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a plain, JSON-serialisable dictionary.

        Every field appears, so catalog spec hashes, golden fixtures and
        exported runs digest the whole configuration; equal specs give
        equal dictionaries.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AssessmentSpec":
        """Build a spec from a dictionary, rejecting unknown keys loudly.

        Older documents may still carry removed execution fields
        (``scheduler_engine``, ``engine``, ``shard_nodes``,
        ``shard_dtype``).  Each one's old default is accepted and dropped;
        any other value (``engine: "sharded"``, a shard geometry, a removed
        implementation) is rejected with a message naming the field.
        """
        data = dict(data)
        for field, (default, reason) in _REMOVED_FIELDS.items():
            value = data.pop(field, default)
            if value != default:
                raise ValueError(
                    f"{field} {value!r} was removed: {reason}; drop the "
                    "field")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown AssessmentSpec fields: {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return cls(**data)

    def to_json(self, path: PathLike) -> None:
        """Write the spec to ``path`` as JSON."""
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: PathLike) -> "AssessmentSpec":
        """Load a spec from a JSON file."""
        data = read_json(path)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: an assessment spec must be a JSON object")
        return cls.from_dict(data)


#: Field names in declaration order, and each name's position.
_FIELD_ORDER = tuple(field.name for field in dataclasses.fields(AssessmentSpec))
_FIELD_INDEX = {name: index for index, name in enumerate(_FIELD_ORDER)}


def default_spec(node_scale: float = 1.0, **overrides: Any) -> AssessmentSpec:
    """The spec reproducing the paper's snapshot at the given fleet scale.

    Every field can be overridden by keyword; the defaults match the
    historical ``build_iris_snapshot_config()`` +
    ``evaluate_model(175.0, 1.3)`` pipeline exactly.
    """
    return AssessmentSpec(node_scale=node_scale, **overrides)


__all__ = [
    "AssessmentSpec",
    "default_spec",
    "CATALOG_ESTIMATOR",
    "ANALYSIS_SAMPLE_FIELDS",
    "PHYSICAL_SAMPLE_FIELDS",
    "TEMPORAL_SAMPLE_FIELDS",
    "SAMPLABLE_FIELDS",
    "COLUMNAR_SWEEP_FIELDS",
]
