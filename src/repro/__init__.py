"""repro — total environmental impact accounting for computing infrastructures.

A reproduction of *"Evaluating Total Environmental Impact for a Computing
Infrastructure"* (SC 2023 / IRISCAST): a carbon model that combines measured
active (operational) energy with amortised embodied carbon to give the total
climate impact of a digital research infrastructure over an evaluation
period, plus every substrate the evaluation needs — a hardware inventory, a
workload and measurement simulator, a grid carbon-intensity model, embodied
carbon estimators and baselines.

Quick start
-----------

The canonical front door is the :class:`~repro.api.assessment.Assessment`
façade, driven by a declarative :class:`~repro.api.spec.AssessmentSpec`:

>>> from repro import Assessment, default_spec
>>> result = Assessment.from_spec(default_spec(node_scale=0.05)).run()
>>> result.total_kg > 0
True

Scenario variants are fluent — each builder returns a new assessment, and
runs sharing a physical configuration reuse one cached simulation:

>>> cheap = (Assessment.from_spec(default_spec(node_scale=0.05))
...          .with_grid(50.0).with_pue(1.1).run())
>>> cheap.total_kg < result.total_kg
True

Parameter grids go through :class:`~repro.api.batch.BatchAssessmentRunner`:

>>> from repro import BatchAssessmentRunner
>>> batch = BatchAssessmentRunner(default_spec(node_scale=0.05)).sweep(
...     intensity=[50.0, 175.0, 300.0], pue=[1.1, 1.3])
>>> len(batch)
6

Probabilistic sweeps go through :mod:`repro.uncertainty` — any samplable
numeric spec field may carry a distribution, and a seeded ensemble runs
vectorised against one cached simulation:

>>> from repro.uncertainty import EnsembleRunner
>>> ensemble = EnsembleRunner(default_spec(node_scale=0.05)).run(
...     n_samples=2000, seed=0)
>>> sorted(ensemble.quantiles("total_kg")) == ["p05", "p25", "p50", "p75", "p95"]
True

Multi-site portfolios go through :mod:`repro.portfolio` — K member sites,
each a full spec with a region binding and a load share, run concurrently
over one shared substrate with marginal-placement ranking:

>>> from repro.portfolio import PortfolioRunner, PortfolioSpec
>>> folio = PortfolioRunner(PortfolioSpec.from_regions(
...     ["GB", "FR", "PL"], base_spec=default_spec(node_scale=0.05))).run()
>>> folio.best_site_for(1000.0).region
'FR'

Every front door accepts an opt-in ``catalog=`` argument recording the run
into a content-addressed :mod:`repro.catalog` — the system of record the
``repro runs`` CLI queries, diffs and garbage-collects.  A repeat of a
catalogued spec is *served* from the catalog, bit-identical, with zero
simulation:

>>> import tempfile, os
>>> catalog_path = os.path.join(tempfile.mkdtemp(), "runs.db")
>>> first = Assessment.from_spec(default_spec(node_scale=0.05),
...                              catalog=catalog_path).run()
>>> again = Assessment.from_spec(default_spec(node_scale=0.05),
...                              catalog=catalog_path).run()
>>> again.served_from_catalog and again.total_kg == first.total_kg
True

New backends (grid providers, embodied estimators, inventory sources, ...)
register by name via :mod:`repro.api` and become addressable from any spec.
The subpackages remain importable directly (``repro.core``, ``repro.power``,
``repro.grid``, ...); the names re-exported here are the ones most users
need.
"""

from repro.units import Carbon, CarbonIntensity, Duration, Energy, Power
from repro.core import (
    ActiveCarbonCalculator,
    ActiveEnergyInput,
    ActiveScenarioGrid,
    CarbonModel,
    EmbodiedAsset,
    EmbodiedCarbonCalculator,
    EmbodiedScenarioGrid,
    LinearAmortization,
    ScenarioLevel,
    SnapshotInputs,
    TotalCarbonResult,
)
from repro.inventory import (
    DigitalResearchInfrastructure,
    HardwareCatalog,
    NodeClass,
    NodeSpec,
    build_iris_infrastructure,
    default_catalog,
    iris_inventory_table,
)
from repro.grid import (
    CarbonIntensitySeries,
    GenerationMix,
    SyntheticGridModel,
    default_regions,
    uk_november_2022_intensity,
)
from repro.power import (
    FacilityOverheadModel,
    MeasurementCampaign,
    NodePowerModel,
    PowerBreakdownTrace,
)
from repro.embodied import BottomUpEstimator, default_pcf_database
from repro.snapshot import (
    SnapshotConfig,
    SnapshotExperiment,
    SnapshotResult,
    build_iris_snapshot_config,
)
from repro.reporting import AuditReport, EquivalenceReport, format_table
from repro.api import (
    Assessment,
    AssessmentResult,
    AssessmentSpec,
    BatchAssessmentRunner,
    BatchResult,
    SubstrateCache,
    TemporalAssessment,
    TemporalAssessmentResult,
    default_spec,
    register_embodied_estimator,
    register_grid_provider,
    register_inventory_source,
    register_iris_variant,
    register_trace_provider,
)
from repro.portfolio import (
    PortfolioMember,
    PortfolioResult,
    PortfolioRunner,
    PortfolioSpec,
)
from repro.catalog import (
    CatalogRecorder,
    RunCatalog,
    RunDiff,
    RunRecord,
    ServedRun,
    diff_runs,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # units
    "Carbon",
    "CarbonIntensity",
    "Duration",
    "Energy",
    "Power",
    # core model
    "ActiveCarbonCalculator",
    "ActiveEnergyInput",
    "ActiveScenarioGrid",
    "CarbonModel",
    "EmbodiedAsset",
    "EmbodiedCarbonCalculator",
    "EmbodiedScenarioGrid",
    "LinearAmortization",
    "ScenarioLevel",
    "SnapshotInputs",
    "TotalCarbonResult",
    # inventory
    "DigitalResearchInfrastructure",
    "HardwareCatalog",
    "NodeClass",
    "NodeSpec",
    "build_iris_infrastructure",
    "default_catalog",
    "iris_inventory_table",
    # grid
    "CarbonIntensitySeries",
    "GenerationMix",
    "SyntheticGridModel",
    "default_regions",
    "uk_november_2022_intensity",
    # power
    "FacilityOverheadModel",
    "MeasurementCampaign",
    "NodePowerModel",
    "PowerBreakdownTrace",
    # embodied
    "BottomUpEstimator",
    "default_pcf_database",
    # snapshot
    "SnapshotConfig",
    "SnapshotExperiment",
    "SnapshotResult",
    "build_iris_snapshot_config",
    # unified assessment API
    "Assessment",
    "AssessmentResult",
    "AssessmentSpec",
    "BatchAssessmentRunner",
    "BatchResult",
    "SubstrateCache",
    "TemporalAssessment",
    "TemporalAssessmentResult",
    "default_spec",
    "register_embodied_estimator",
    "register_grid_provider",
    "register_inventory_source",
    "register_iris_variant",
    "register_trace_provider",
    # portfolio
    "PortfolioMember",
    "PortfolioResult",
    "PortfolioRunner",
    "PortfolioSpec",
    # run catalog
    "CatalogRecorder",
    "RunCatalog",
    "RunDiff",
    "RunRecord",
    "ServedRun",
    "diff_runs",
    # reporting
    "AuditReport",
    "EquivalenceReport",
    "format_table",
]
