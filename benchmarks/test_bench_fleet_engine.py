"""Bench: the columnar fleet engine vs the seed per-node substrate, at scale.

The acceptance bar for the columnar refactor: at ``node_scale=1.0`` (the
full 2,462-node IRIS fleet) the workload→power substrate — placements →
utilisation matrix → power → measured site energies — must run at least
**5x faster** through the columnar engine
(:meth:`FleetUtilization.from_placements` +
:meth:`PowerBreakdownTrace.from_utilization` + the instruments' reduction
fast path) than through the seed per-node oracle (``tests/oracles/``: the
per-placement trace builder + the per-node power conversion), while
agreeing with it to ≤1e-9 relative on every Table 2 energy and on the
facility power series.

The event-driven scheduler itself is shared by both engines (it is not a
per-node loop), so each site's jobs are scheduled once and the two
substrates are timed over identical placements.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from oracles import use_reference_substrate
from oracles.power import from_utilization_loop
from oracles.scheduler import build_trace_loop

from repro.inventory.network import NetworkFabric
from repro.io.jsonio import write_json
from repro.power.campaign import MeasurementCampaign
from repro.power.node_power import NodePowerModel
from repro.power.traces import PowerBreakdownTrace
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment, SnapshotResult, SiteSnapshotResult
from repro.workload.jobs import JobGenerator, WorkloadProfile
from repro.workload.scheduler import BackfillScheduler

#: The acceptance bar (measured ~6x on a single-core container; the margin
#: only widens on wider machines where the BLAS reductions parallelise).
MIN_SPEEDUP = 5.0

#: Old engine vs new engine agreement on energies and power series.
EQUIVALENCE_RTOL = 1e-9

NODE_SCALE = 1.0
TIMING_REPEATS = 3


def _schedule_sites(config):
    """Schedule every site once; both engines consume the same placements."""
    experiment = SnapshotExperiment(config)
    sites = []
    for site in config.sites:
        node_ids, specs = experiment._site_specs(site)
        target = experiment._site_target_utilization(site, specs)
        cluster = experiment._build_cluster(node_ids, specs)
        profile = WorkloadProfile(
            target_utilization=min(max(target, 0.01), 1.0),
            cpu_intensity_low=1.0, cpu_intensity_high=1.0)
        generator = JobGenerator(
            profile, cluster.total_cores, seed=site.workload_seed,
            max_cores_per_job=min(node.cores for node in cluster.nodes))
        jobs = generator.generate(config.duration_s,
                                  warmup_s=config.warmup_hours * 3600.0)
        scheduler = BackfillScheduler(cluster)
        placements, stats = scheduler.run(jobs, config.duration_s)
        sites.append({
            "site": site,
            "scheduler": scheduler,
            "placements": placements,
            "stats": stats,
            "models": [NodePowerModel(spec) for spec in specs],
            "target": target,
            "fabric": NetworkFabric.sized_for_nodes(site.node_count),
            "campaign": MeasurementCampaign(experiment._instruments(site),
                                            seed=config.campaign_seed),
        })
    return sites


@pytest.fixture(scope="module")
def scheduled_fleet():
    config = build_iris_snapshot_config(node_scale=NODE_SCALE)
    return config, _schedule_sites(config)


def _run_substrate(config, sites, engine: str):
    """Placements → measured Table 2 energies, through one engine."""
    site_results = []
    for entry in sites:
        site = entry["site"]
        scheduler = entry["scheduler"]
        if engine == "oracle":
            trace = build_trace_loop(
                scheduler, entry["placements"], config.duration_s,
                step_s=config.trace_step_s)
            power = from_utilization_loop(trace, entry["models"])
        else:
            trace = scheduler.build_trace(
                entry["placements"], config.duration_s,
                step_s=config.trace_step_s)
            power = PowerBreakdownTrace.from_utilization(trace, entry["models"])
        report = entry["campaign"].measure_site(
            site.site, power, network_power_w=entry["fabric"].total_power_w,
            methods=site.measurement_methods)
        result = SiteSnapshotResult(
            site=site.site,
            config=site,
            energy_report=report,
            scheduler_stats=entry["stats"],
            mean_utilization=trace.mean_utilization(),
            target_utilization=entry["target"],
            network_power_w=entry["fabric"].total_power_w,
            per_node_utilization=dict(
                zip(trace.node_ids, trace.mean_per_node().tolist())),
            node_specs={},
            site_power_series=power.total_series("wall"),
        )
        object.__setattr__(result, "_duration_hours", config.duration_hours)
        site_results.append(result)
    return SnapshotResult(config=config, site_results=tuple(site_results))


def _best_time(fn, repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_equivalent(oracle: SnapshotResult, columnar: SnapshotResult):
    """The fleet-scale golden bar: Table 2 energies and facility series agree."""
    for row_old, row_new in zip(oracle.table2_rows(), columnar.table2_rows()):
        assert row_old["site"] == row_new["site"]
        for method, old_value in row_old.items():
            if method in ("site", "nodes"):
                continue
            new_value = row_new[method]
            if old_value is None:
                assert new_value is None
                continue
            assert new_value == pytest.approx(
                old_value, rel=EQUIVALENCE_RTOL, abs=1e-9), (
                f"{row_old['site']}/{method}: {new_value} != {old_value}")
    series_old = oracle.facility_power_series()
    series_new = columnar.facility_power_series()
    np.testing.assert_allclose(series_new.values, series_old.values,
                               rtol=EQUIVALENCE_RTOL, atol=1e-6)


def test_bench_fleet_engine_full_scale(scheduled_fleet, results_dir):
    config, sites = scheduled_fleet

    oracle_s = _best_time(lambda: _run_substrate(config, sites, "oracle"))
    columnar_s = _best_time(lambda: _run_substrate(config, sites, "columnar"))
    speedup = oracle_s / columnar_s if columnar_s > 0 else float("inf")

    oracle = _run_substrate(config, sites, "oracle")
    columnar = _run_substrate(config, sites, "columnar")
    _assert_equivalent(oracle, columnar)
    assert columnar.total_nodes == 2462

    write_json(results_dir / "bench_fleet_engine.json", {
        "node_scale": NODE_SCALE,
        "total_nodes": columnar.total_nodes,
        "placements": sum(len(entry["placements"]) for entry in sites),
        "oracle_seconds": oracle_s,
        "columnar_seconds": columnar_s,
        "speedup": speedup,
        "total_best_estimate_kwh": columnar.total_best_estimate_kwh,
    })
    print(f"\nfleet substrate at scale {NODE_SCALE}: oracle {oracle_s:.3f}s, "
          f"columnar {columnar_s:.3f}s ({speedup:.1f}x)")

    assert speedup >= MIN_SPEEDUP, (
        f"columnar engine only {speedup:.2f}x faster than the per-node "
        f"oracle (bar: {MIN_SPEEDUP}x; oracle {oracle_s:.3f}s, "
        f"columnar {columnar_s:.3f}s)")


def test_fleet_engine_smoke_tiny_scale(monkeypatch):
    """CI smoke: both substrates agree end to end at a tiny fleet scale.

    Runs in a couple of seconds; keeps this benchmark importable and the
    oracle swap exercised on every CI run without the full-scale cost.
    """
    config = build_iris_snapshot_config(node_scale=0.02)
    columnar = SnapshotExperiment(config).run()
    use_reference_substrate(monkeypatch)
    oracle = SnapshotExperiment(config).run()
    _assert_equivalent(oracle, columnar)
    assert oracle.total_best_estimate_kwh > 0
