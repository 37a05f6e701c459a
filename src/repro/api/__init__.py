"""The unified assessment pipeline API.

This package is the canonical way to run any assessment.  It provides:

* :class:`~repro.api.spec.AssessmentSpec` — a declarative, JSON round-
  trippable description of a run (inventory source, grid provider,
  embodied estimator, amortisation policy, scenario parameters);
* the component **registries** (:mod:`repro.api.registry`) under which the
  stock implementations are registered by name and new backends plug in
  without touching core code;
* :class:`~repro.api.assessment.Assessment` — the façade that runs one
  spec (or is configured fluently with ``with_*`` builders) and returns an
  :class:`~repro.api.result.AssessmentResult` wrapping the snapshot, the
  carbon model evaluation, the scenario grids and the report;
* :class:`~repro.api.batch.BatchAssessmentRunner` — parameter-grid sweeps
  over a shared :class:`~repro.api.substrates.SubstrateCache`, so N
  scenarios cost one simulation instead of N.

Quick start::

    from repro.api import Assessment, BatchAssessmentRunner, default_spec

    result = Assessment.from_spec(default_spec(node_scale=0.05)).run()
    print(result.total_kg)

    batch = BatchAssessmentRunner(default_spec(node_scale=0.05)).sweep(
        intensity=[50.0, 175.0, 300.0], pue=[1.1, 1.3], lifetime=[3.0, 5.0])
    print(batch.min_total_kg, batch.max_total_kg)
"""

from repro.api.registry import (
    AMORTIZATION_POLICIES,
    BASELINE_ESTIMATORS,
    ComponentRegistry,
    DuplicateComponentError,
    EMBODIED_ESTIMATORS,
    GRID_PROVIDERS,
    INVENTORY_SOURCES,
    TRACE_PROVIDERS,
    UnknownComponentError,
    register_amortization_policy,
    register_baseline_estimator,
    register_embodied_estimator,
    register_grid_provider,
    register_inventory_source,
    register_trace_provider,
)
from repro.api.spec import (
    CATALOG_ESTIMATOR,
    COLUMNAR_SWEEP_FIELDS,
    AssessmentSpec,
    default_spec,
)
from repro.api.substrates import (
    DEFAULT_SHARED_MAX_ENTRIES,
    SubstrateCache,
    shared_substrates,
)
from repro.api.result import AssessmentResult
from repro.api.assessment import Assessment
from repro.api.columnar import SweepPlan, columnar_eligible, compile_sweep
from repro.api.batch import (
    BatchAssessmentRunner,
    BatchResult,
    SWEEP_AXES,
    TemporalBatchResult,
)
from repro.api.temporal import TemporalAssessment, TemporalAssessmentResult
from repro.api.scenarios import active_scenario_rows, embodied_scenario_rows

# Register the stock components under their well-known names (import for
# side effect; must come after the registries exist).
from repro.api import defaults as _defaults  # noqa: E402,F401
from repro.api.defaults import register_iris_variant

__all__ = [
    # spec
    "AssessmentSpec",
    "default_spec",
    "CATALOG_ESTIMATOR",
    # façade and results
    "Assessment",
    "AssessmentResult",
    "BatchAssessmentRunner",
    "BatchResult",
    "TemporalBatchResult",
    "TemporalAssessment",
    "TemporalAssessmentResult",
    "SWEEP_AXES",
    # sweep compiler
    "COLUMNAR_SWEEP_FIELDS",
    "SweepPlan",
    "columnar_eligible",
    "compile_sweep",
    # substrates
    "DEFAULT_SHARED_MAX_ENTRIES",
    "SubstrateCache",
    "shared_substrates",
    # scenario helpers
    "active_scenario_rows",
    "embodied_scenario_rows",
    # registries
    "ComponentRegistry",
    "UnknownComponentError",
    "DuplicateComponentError",
    "GRID_PROVIDERS",
    "EMBODIED_ESTIMATORS",
    "INVENTORY_SOURCES",
    "AMORTIZATION_POLICIES",
    "BASELINE_ESTIMATORS",
    "TRACE_PROVIDERS",
    "register_grid_provider",
    "register_embodied_estimator",
    "register_inventory_source",
    "register_amortization_policy",
    "register_baseline_estimator",
    "register_trace_provider",
    "register_iris_variant",
]
