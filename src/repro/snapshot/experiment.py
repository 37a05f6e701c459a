"""Running the snapshot audit end to end.

For every configured site, :class:`SnapshotExperiment`:

1. builds the site's node fleet from the hardware catalog;
2. calibrates the workload so that the site's average per-node wall power
   matches the configured target (derived from the paper's Table 2);
3. generates a synthetic job stream and schedules it with the
   FCFS+backfill scheduler, producing a utilisation trace;
4. converts utilisation to component-resolved power and runs the site's
   measurement instruments over it, producing the site's row of Table 2;
5. collects the per-node utilisation needed by the utilisation-aware
   amortisation policies.

Where the utilisation matrix lives is decided per site by size, not by a
setting: a site whose float64 matrix would exceed
:data:`DENSE_TRACE_LIMIT_BYTES` (see :func:`out_of_core`) streams node-axis
shards from disk instead of holding the matrix in memory.  The shards are
scratch: each such site writes them to a private directory under the
system temporary directory (``TMPDIR``) and removes it before
:meth:`SnapshotExperiment.run_site` returns.  Every default IRIS site is
far below the limit.

The combined :class:`SnapshotResult` then exposes the Table 2 rows, the
active-energy input for the carbon model, the embodied asset list, and
convenience evaluations of the scenario grids (Tables 3 and 4).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.active import ActiveEnergyInput
from repro.core.embodied import EmbodiedAsset, EmbodiedColumns, MaskedColumn
from repro.core.model import CarbonModel, SnapshotInputs
from repro.core.results import TotalCarbonResult
from repro.core.scenarios import ActiveScenarioGrid, EmbodiedScenarioGrid
from repro.inventory.catalog import HardwareCatalog, default_catalog
from repro.inventory.network import NetworkFabric
from repro.inventory.node import NodeSpec
from repro.power.calibration import fleet_utilization_for_target_power
from repro.power.campaign import MeasurementCampaign, SiteEnergyReport
from repro.power.fleet_power import ShardedPowerBreakdownTrace
from repro.power.instruments import FacilityMeter, IPMIMeter, PDUMeter, TurbostatMeter
from repro.power.node_power import NodePowerModel
from repro.power.traces import PowerBreakdownTrace
from repro.snapshot.config import SiteSnapshotConfig, SnapshotConfig, build_iris_snapshot_config
from repro.timeseries.series import TimeSeries
from repro.units.constants import JOULES_PER_KWH
from repro.units.quantities import CarbonIntensity, Duration
from repro.workload.cluster import SimulatedCluster, SimulatedNode
from repro.workload.fleet import FleetUtilization, ShardedFleetUtilization
from repro.workload.jobs import JobGenerator, WorkloadProfile
from repro.workload.scheduler import BackfillScheduler, SchedulerStatistics

#: Largest float64 utilisation matrix one site holds in memory (256 MiB).
#: A bigger site is simulated out of core, and its shards are sized to
#: this budget.  At the default settings the largest full-scale IRIS site
#: (DUR, 876 nodes x 1,440 samples) needs 9.6 MiB.
DENSE_TRACE_LIMIT_BYTES = 256 * 1024 * 1024

_FLOAT64_BYTES = 8


def _sample_count(config: SnapshotConfig) -> int:
    return int(round(config.duration_s / config.trace_step_s))


def out_of_core(site: SiteSnapshotConfig, config: SnapshotConfig) -> bool:
    """Whether ``site``'s utilisation matrix exceeds the in-memory limit.

    Depends only on the physical configuration, so one physical key always
    gets the same substrate.
    """
    return (site.node_count * _sample_count(config) * _FLOAT64_BYTES
            > DENSE_TRACE_LIMIT_BYTES)


@dataclass(frozen=True)
class SiteSnapshotResult:
    """Everything the snapshot produced for one site."""

    site: str
    config: SiteSnapshotConfig
    energy_report: SiteEnergyReport
    scheduler_stats: SchedulerStatistics
    mean_utilization: float
    target_utilization: float
    network_power_w: float
    per_node_utilization: Mapping[str, float]
    node_specs: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "per_node_utilization", dict(self.per_node_utilization))
        object.__setattr__(self, "node_specs", dict(self.node_specs))
        if self.timings is not None:
            object.__setattr__(self, "timings", dict(self.timings))

    #: Duration of the measurement window in hours; set by the experiment
    #: when it builds the result (defaults to the paper's 24-hour snapshot).
    _duration_hours: float = 24.0

    #: Site-total wall power over the window (one value per trace step),
    #: retained for the time-resolved engine; ``None`` for results built
    #: before traces were kept (a flat profile is substituted downstream).
    site_power_series: Optional["TimeSeries"] = None

    #: Wall-clock seconds per simulation phase (``calibration_s``,
    #: ``workload_s``, ``schedule_s``, ``trace_s``, ``power_s``,
    #: ``total_s``), recorded by the experiment; ``None`` for results built
    #: before timings were kept.  Results from caches written before
    #: calibration was timed lack ``calibration_s``.
    #: Diagnostic only — never part of any digest or golden payload.
    timings: Optional[Mapping[str, float]] = None

    @property
    def best_estimate_kwh(self) -> float:
        """The site's widest-scope measured energy."""
        return self.energy_report.best_estimate_kwh

    @property
    def duration_hours(self) -> float:
        """Length of the measurement window in hours."""
        return self._duration_hours

    @property
    def mean_node_power_w(self) -> float:
        """Average per-node power implied by the best estimate."""
        return self.best_estimate_kwh * 1000.0 / (self.config.node_count * self._duration_hours)


@dataclass(frozen=True, eq=False)
class _EmbodiedTemplate:
    """The part of a snapshot's embodied columns no call changes.

    Nodes come site by site in ``node_specs`` order, each site followed by
    its network fabric when it has switches.  A call fills in the nodes'
    figures and lifetime; the fabrics keep their own.
    """

    asset_ids: Tuple[str, ...]
    component_codes: np.ndarray
    components: Tuple[str, ...]
    #: Asset index of each node.
    node_positions: np.ndarray
    #: Distinct node models in order of first appearance, and per node the
    #: index of its model.
    models: Tuple[str, ...]
    model_index: np.ndarray
    #: Fabric figures and lifetimes at their positions (0.0 at nodes).
    fixed_kgco2: np.ndarray
    fixed_lifetime_years: np.ndarray
    period_utilization: MaskedColumn
    lifetime_utilization: MaskedColumn
    #: Catalog figure per model, filled on first use.
    catalog_kgco2: Dict[str, float]

    @classmethod
    def build(cls, site_results: Sequence[SiteSnapshotResult]) -> "_EmbodiedTemplate":
        asset_ids: List[str] = []
        codes: List[int] = []
        components: Dict[str, int] = {}
        node_positions: List[int] = []
        models: Dict[str, int] = {}
        model_index: List[int] = []
        fixed_kgco2: List[float] = []
        fixed_lifetime: List[float] = []
        utilization: List[Optional[float]] = []
        for result in site_results:
            for node_id, model_name in result.node_specs.items():
                node_positions.append(len(asset_ids))
                asset_ids.append(node_id)
                codes.append(components.setdefault("nodes", len(components)))
                model_index.append(models.setdefault(model_name, len(models)))
                fixed_kgco2.append(0.0)
                fixed_lifetime.append(0.0)
                utilization.append(result.per_node_utilization.get(node_id))
            fabric = NetworkFabric.sized_for_nodes(result.config.node_count)
            if fabric.switch_count:
                asset_ids.append(f"{result.site}-network")
                codes.append(components.setdefault("network", len(components)))
                fixed_kgco2.append(fabric.total_embodied_kgco2)
                fixed_lifetime.append(fabric.leaf_spec.lifetime_years)
                utilization.append(None)
        node_positions_array = np.array(node_positions, dtype=np.intp)
        is_node = np.zeros(len(asset_ids), dtype=bool)
        is_node[node_positions_array] = True
        return cls(
            asset_ids=tuple(asset_ids),
            component_codes=np.array(codes, dtype=np.intp),
            components=tuple(components),
            node_positions=node_positions_array,
            models=tuple(models),
            model_index=np.array(model_index, dtype=np.intp),
            fixed_kgco2=np.array(fixed_kgco2, dtype=np.float64),
            fixed_lifetime_years=np.array(fixed_lifetime, dtype=np.float64),
            period_utilization=MaskedColumn.from_optional(utilization),
            lifetime_utilization=MaskedColumn(
                values=np.where(is_node, 0.6, 0.0), present=is_node),
            catalog_kgco2={},
        )


@dataclass(frozen=True)
class SnapshotResult:
    """The combined outcome of a snapshot audit."""

    config: SnapshotConfig
    site_results: Tuple[SiteSnapshotResult, ...]

    def __post_init__(self):
        if not self.site_results:
            raise ValueError("a snapshot result needs at least one site")
        object.__setattr__(self, "site_results", tuple(self.site_results))

    # -- Table 2 ----------------------------------------------------------------------

    def table2_rows(self) -> List[Dict[str, object]]:
        """Rows mirroring Table 2: per-site energy by method plus node count."""
        return [result.energy_report.as_table_row() for result in self.site_results]

    @property
    def total_best_estimate_kwh(self) -> float:
        """The snapshot total (sum of widest-scope readings; paper: 18,760 kWh)."""
        return float(sum(result.best_estimate_kwh for result in self.site_results))

    @property
    def total_nodes(self) -> int:
        return int(sum(result.config.node_count for result in self.site_results))

    def site_result(self, site: str) -> SiteSnapshotResult:
        """Look up one site's result."""
        for result in self.site_results:
            if result.site == site:
                return result
        raise KeyError(f"no site {site!r} in snapshot result")

    @property
    def timings(self) -> Dict[str, Dict[str, float]]:
        """Per-site wall-clock phase seconds, for sites that recorded them.

        Keys are site names; values map phase (``calibration_s``,
        ``workload_s``, ``schedule_s``, ``trace_s``, ``power_s``,
        ``total_s``) to seconds.
        Diagnostic output for ``repro assess --timings`` and perf work —
        deliberately excluded from result digests, goldens and catalogs.
        """
        return {
            result.site: dict(result.timings)
            for result in self.site_results
            if result.timings is not None
        }

    # -- carbon-model inputs -----------------------------------------------------------

    def period(self) -> Duration:
        return Duration.from_hours(self.config.duration_hours)

    def active_energy_input(self) -> ActiveEnergyInput:
        """The measured-energy bundle the active-carbon term consumes."""
        node_energy = {
            result.site: result.best_estimate_kwh for result in self.site_results
        }
        return ActiveEnergyInput(period=self.period(), node_energy_kwh=node_energy)

    def facility_power_series(self, reconcile: bool = True) -> TimeSeries:
        """The fleet's total IT power over the window, one value per step.

        Sums the retained per-site wall-power traces onto the shared trace
        grid.  With ``reconcile`` (the default) each site's trace is scaled
        so that it integrates (rectangle rule, matching the meters' own
        accumulation) to exactly the site's best-estimate measured energy —
        the same per-site energies :meth:`active_energy_input` feeds the
        carbon model — so time-resolved and period-average accounting agree
        on the total energy and differ only in *when* it was drawn.

        Sites whose trace was not retained (results built before traces
        were kept) contribute a flat profile at their mean measured power.
        """
        step = self.config.trace_step_s
        n = int(round(self.config.duration_s / step))
        if n < 1:
            raise ValueError("the snapshot window contains no trace steps")
        total = np.zeros(n, dtype=np.float64)
        for result in self.site_results:
            series = result.site_power_series
            if series is None:
                mean_w = (result.best_estimate_kwh * JOULES_PER_KWH
                          / self.config.duration_s)
                total += mean_w
                continue
            values = series.values
            if len(values) != n or abs(series.step - step) > 1e-9 * step:
                raise ValueError(
                    f"site {result.site!r} power trace is not on the snapshot "
                    f"grid ({len(values)} x {series.step}s vs {n} x {step}s)"
                )
            if reconcile:
                trace_kwh = float(values.sum()) * step / JOULES_PER_KWH
                scale = (result.best_estimate_kwh / trace_kwh
                         if trace_kwh > 0.0 else 0.0)
                total += values * scale
            else:
                total += values
        return TimeSeries(0.0, step, total)

    def embodied_assets(
        self,
        per_server_kgco2: Optional[float] = None,
        lifetime_years: Optional[float] = None,
        node_kgco2_resolver: Optional[Callable[[str], float]] = None,
    ) -> List[EmbodiedAsset]:
        """:meth:`embodied_columns` as a list of :class:`EmbodiedAsset`."""
        return self.embodied_columns(
            per_server_kgco2, lifetime_years, node_kgco2_resolver).assets()

    def embodied_columns(
        self,
        per_server_kgco2: Optional[float] = None,
        lifetime_years: Optional[float] = None,
        node_kgco2_resolver: Optional[Callable[[str], float]] = None,
    ) -> EmbodiedColumns:
        """One embodied asset per measured node (plus per-site network fabrics).

        ``per_server_kgco2`` overrides the per-node embodied carbon (used by
        the Table 4 scenario sweeps); ``node_kgco2_resolver`` maps a catalog
        model name to a per-node figure (how ``repro.api`` plugs in named
        embodied estimators); by default each node class keeps its catalog
        datasheet figure.  Each call resolves one figure per distinct node
        model and fills the rest from the snapshot's template.
        """
        template = self._embodied_template()
        per_model: List[float] = []
        for model_name in template.models:
            embodied = per_server_kgco2
            if embodied is None and node_kgco2_resolver is not None:
                embodied = node_kgco2_resolver(model_name)
            if embodied is None:
                embodied = template.catalog_kgco2.get(model_name)
                if embodied is None:
                    embodied = self._catalog_embodied_kg(model_name)
                    template.catalog_kgco2[model_name] = embodied
            per_model.append(embodied)
        kgco2 = template.fixed_kgco2.copy()
        kgco2[template.node_positions] = np.array(
            per_model, dtype=np.float64)[template.model_index]
        lifetimes = template.fixed_lifetime_years.copy()
        lifetimes[template.node_positions] = lifetime_years or self.config.lifetime_years
        return EmbodiedColumns(
            asset_ids=template.asset_ids,
            component_codes=template.component_codes,
            components=template.components,
            embodied_kgco2=kgco2,
            lifetime_years=lifetimes,
            period_utilization=template.period_utilization,
            lifetime_utilization=template.lifetime_utilization,
        )

    def _embodied_template(self) -> "_EmbodiedTemplate":
        # Built on first use and kept on the instance, outside the dataclass
        # fields, so it never reaches equality, persistence or digests.  One
        # attribute store publishes the finished template: concurrent first
        # callers may each build one, and either is correct.
        template = self.__dict__.get("_embodied")
        if template is None:
            template = _EmbodiedTemplate.build(self.site_results)
            object.__setattr__(self, "_embodied", template)
        return template

    def _catalog_embodied_kg(self, model_name: str) -> float:
        catalog = default_catalog()
        spec = catalog.node(model_name)
        if spec.embodied_kgco2_datasheet is not None:
            return float(spec.embodied_kgco2_datasheet)
        from repro.embodied.bottom_up import BottomUpEstimator

        return BottomUpEstimator().estimate_node(spec).total_kgco2

    # -- model evaluations ----------------------------------------------------------------

    def evaluate_model(
        self,
        carbon_intensity_g_per_kwh: float = 175.0,
        pue: float = 1.3,
        per_server_kgco2: Optional[float] = None,
        lifetime_years: Optional[float] = None,
    ) -> TotalCarbonResult:
        """Evaluate the full carbon model for one scenario."""
        model = CarbonModel(
            carbon_intensity=CarbonIntensity(carbon_intensity_g_per_kwh), pue=pue
        )
        inputs = SnapshotInputs(
            energy=self.active_energy_input(),
            assets=self.embodied_columns(per_server_kgco2, lifetime_years),
        )
        return model.evaluate(inputs)

    def table3_rows(self) -> List[Dict[str, object]]:
        """The active-carbon scenario grid evaluated on this snapshot's energy."""
        return ActiveScenarioGrid().table3_rows(self.active_energy_input())

    def table4_rows(self, period_days: float = 1.0) -> List[Dict[str, float]]:
        """The embodied scenario grid for this snapshot's fleet size."""
        return EmbodiedScenarioGrid().table4_rows(self.total_nodes, period_days)


class SnapshotExperiment:
    """Run the IRISCAST-style snapshot over a simulated infrastructure.

    This is the simulation *engine*; most callers should go through the
    :class:`repro.api.Assessment` façade, which drives it from a
    declarative spec and caches its (expensive) output across scenario
    evaluations.

    Each site runs on the dense in-memory substrate
    (:class:`~repro.workload.fleet.FleetUtilization` +
    :meth:`~repro.power.traces.PowerBreakdownTrace.from_utilization`)
    unless :func:`out_of_core` says its matrix is too big; then it runs on
    the out-of-core substrate
    (:class:`~repro.workload.fleet.ShardedFleetUtilization` +
    :class:`~repro.power.fleet_power.ShardedPowerBreakdownTrace`), which
    streams node-axis shards of at most :data:`DENSE_TRACE_LIMIT_BYTES`
    from a private temporary directory, removed as soon as the site's
    reductions are done, and agrees with the dense path to ≤1e-9.

    Parameters
    ----------
    config / catalog:
        Snapshot configuration and hardware catalog (paper defaults).
    """

    def __init__(
        self,
        config: Optional[SnapshotConfig] = None,
        catalog: Optional[HardwareCatalog] = None,
    ):
        self._config = config or build_iris_snapshot_config()
        self._catalog = catalog or default_catalog()

    @property
    def config(self) -> SnapshotConfig:
        return self._config

    @property
    def catalog(self) -> HardwareCatalog:
        return self._catalog

    # -- per-site pieces -----------------------------------------------------------------

    def _site_specs(self, site: SiteSnapshotConfig) -> Tuple[List[str], List[NodeSpec]]:
        """Node ids and specs for one site (compute nodes first, then storage)."""
        compute_spec = self._catalog.node(site.compute_model)
        storage_spec = self._catalog.node(site.storage_model)
        node_ids: List[str] = []
        specs: List[NodeSpec] = []
        for index in range(site.compute_node_count):
            node_ids.append(f"{site.site}-cpu-{index:04d}")
            specs.append(compute_spec)
        for index in range(site.storage_node_count):
            node_ids.append(f"{site.site}-sto-{index:04d}")
            specs.append(storage_spec)
        return node_ids, specs

    @staticmethod
    def _site_models(specs: Sequence[NodeSpec]) -> List[NodePowerModel]:
        """One power model per node, shared by the nodes of one spec object."""
        built: Dict[int, NodePowerModel] = {}
        models: List[NodePowerModel] = []
        for spec in specs:
            model = built.get(id(spec))
            if model is None:
                model = built[id(spec)] = NodePowerModel(spec)
            models.append(model)
        return models

    def _site_target_utilization(
        self, site: SiteSnapshotConfig, models: Sequence[NodePowerModel]
    ) -> float:
        """Invert the site's mixed-fleet power curve for the calibration target."""
        if site.target_node_power_w is None:
            return site.default_utilization
        return fleet_utilization_for_target_power(
            models, site.target_node_power_w * site.calibration_margin)

    def _build_cluster(self, node_ids: Sequence[str], specs: Sequence[NodeSpec]) -> SimulatedCluster:
        nodes = [
            SimulatedNode(index=i, node_id=node_ids[i],
                          cores=max(specs[i].total_cores, 1),
                          free_cores=max(specs[i].total_cores, 1))
            for i in range(len(node_ids))
        ]
        return SimulatedCluster(nodes)

    def _instruments(self, site: SiteSnapshotConfig) -> Dict[str, object]:
        """The instrument set configured for one site."""
        return {
            "turbostat": TurbostatMeter(),
            "ipmi": IPMIMeter(node_coverage=site.ipmi_node_coverage),
            "pdu": PDUMeter(),
            "facility": FacilityMeter(),
        }

    def run_site(self, site: SiteSnapshotConfig) -> SiteSnapshotResult:
        """Simulate and measure one site for the snapshot window.

        Records per-phase wall-clock seconds (calibration, workload
        generation, scheduling, trace construction, power modelling +
        measurement) on the returned result's ``timings`` — the measured
        baseline future perf work starts from.
        """
        config = self._config
        t_site = time.perf_counter()
        timings: Dict[str, float] = {}
        node_ids, specs = self._site_specs(site)
        # One list for both calibration and the power trace.
        models = self._site_models(specs)
        t_phase = time.perf_counter()
        target_utilization = self._site_target_utilization(site, models)
        timings["calibration_s"] = time.perf_counter() - t_phase
        cluster = self._build_cluster(node_ids, specs)
        duration_s = config.duration_s
        warmup_s = config.warmup_hours * 3600.0
        sharded = out_of_core(site, config)

        if target_utilization > 0.0:
            t_phase = time.perf_counter()
            profile = WorkloadProfile(
                target_utilization=min(max(target_utilization, 0.01), 1.0),
                cpu_intensity_low=1.0,
                cpu_intensity_high=1.0,
            )
            generator = JobGenerator(
                profile,
                cluster.total_cores,
                seed=site.workload_seed,
                max_cores_per_job=min(node.cores for node in cluster.nodes),
            )
            jobs = generator.generate(duration_s, warmup_s=warmup_s)
            timings["workload_s"] = time.perf_counter() - t_phase
            scheduler = BackfillScheduler(cluster)
            t_phase = time.perf_counter()
            placements, stats = scheduler.run(jobs, duration_s)
            timings["schedule_s"] = time.perf_counter() - t_phase
            if not sharded:
                t_phase = time.perf_counter()
                trace = scheduler.build_trace(placements, duration_s,
                                              step_s=config.trace_step_s)
                timings["trace_s"] = time.perf_counter() - t_phase
        else:
            # A fully idle site: no jobs, flat zero utilisation.
            placements = []
            stats = SchedulerStatistics(jobs_submitted=0)
            timings["workload_s"] = 0.0
            timings["schedule_s"] = 0.0
            if not sharded:
                t_phase = time.perf_counter()
                trace = FleetUtilization.constant(0.0, config.trace_step_s,
                                                  node_ids,
                                                  _sample_count(config), 0.0)
                timings["trace_s"] = time.perf_counter() - t_phase

        shard_dir = None
        try:
            if sharded:
                shard_dir = tempfile.mkdtemp(prefix=f"repro-shards-{site.site}-")
                t_phase = time.perf_counter()
                trace = ShardedFleetUtilization.from_placements(
                    placements,
                    node_ids,
                    [node.cores for node in cluster.nodes],
                    duration_s,
                    shard_dir,
                    step_s=config.trace_step_s,
                    shard_nodes=max(1, DENSE_TRACE_LIMIT_BYTES
                                    // (_FLOAT64_BYTES * _sample_count(config))),
                )
                timings["trace_s"] = time.perf_counter() - t_phase
                t_phase = time.perf_counter()
                power = ShardedPowerBreakdownTrace(trace, models)
            else:
                t_phase = time.perf_counter()
                power = PowerBreakdownTrace.from_utilization(trace, models)
            fabric = NetworkFabric.sized_for_nodes(site.node_count)
            campaign = MeasurementCampaign(self._instruments(site),
                                           seed=config.campaign_seed)
            report = campaign.measure_site(
                site.site,
                power,
                network_power_w=fabric.total_power_w,
                methods=site.measurement_methods,
            )
            timings["power_s"] = time.perf_counter() - t_phase
            per_node_util = dict(zip(trace.node_ids,
                                     trace.mean_per_node().tolist()))
            node_spec_names = {node_ids[i]: specs[i].model
                               for i in range(len(node_ids))}
            timings["total_s"] = time.perf_counter() - t_site
            result = SiteSnapshotResult(
                site=site.site,
                config=site,
                energy_report=report,
                scheduler_stats=stats,
                mean_utilization=trace.mean_utilization(),
                target_utilization=target_utilization,
                network_power_w=fabric.total_power_w,
                per_node_utilization=per_node_util,
                node_specs=node_spec_names,
                site_power_series=power.total_series("wall"),
                timings=timings,
            )
        finally:
            # Every reduction the result needs has been materialised, so the
            # shard store is garbage the moment we leave.
            if shard_dir is not None:
                shutil.rmtree(shard_dir, ignore_errors=True)
        object.__setattr__(result, "_duration_hours", config.duration_hours)
        return result

    # -- whole snapshot -----------------------------------------------------------------------

    def run(self) -> SnapshotResult:
        """Run every configured site, in configuration order, and assemble
        the combined result.

        Sites run one after another.  A thread per site was measured no
        faster, at 24 h or at 30 days: job generation and scheduling are
        pure-Python loops that hold the GIL.  Every site derives its own
        seeds, so each site's result does not depend on the others.
        """
        results = [self.run_site(site) for site in self._config.sites]
        return SnapshotResult(config=self._config, site_results=tuple(results))


__all__ = ["DENSE_TRACE_LIMIT_BYTES", "SnapshotExperiment", "SnapshotResult",
           "SiteSnapshotResult", "out_of_core"]
