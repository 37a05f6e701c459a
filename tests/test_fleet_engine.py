"""Tests for the columnar fleet engine: FleetUtilization, FleetPowerModel,
the lazy power-trace reductions, engine selection, parallel site execution
and the persistent substrate cache."""

import numpy as np
import pytest

from oracles import use_reference_substrate
from oracles.power import from_utilization_loop
from oracles.scheduler import build_trace_loop

from repro.api import Assessment, BatchAssessmentRunner, SubstrateCache, default_spec
from repro.api.persistence import (
    SNAPSHOT_CACHE_VERSION,
    load_snapshot_result,
    save_snapshot_result,
    snapshot_digest,
)
from repro.inventory.catalog import default_catalog
from repro.power.fleet_power import FleetPowerModel
from repro.power.node_power import NodePowerModel
from repro.power.traces import PowerBreakdownTrace
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment
from repro.workload.cluster import SimulatedCluster
from repro.workload.fleet import FleetUtilization
from repro.workload.jobs import Job
from repro.workload.scheduler import BackfillScheduler
from repro.workload.utilization import UtilizationTrace


def _random_placements(seed: int, node_count: int = 5, cores: int = 8,
                       duration_s: float = 3600.0, n_jobs: int = 60):
    """Schedule a random workload and return (scheduler, placements)."""
    cluster = SimulatedCluster.homogeneous(node_count, cores)
    rng = np.random.default_rng(seed)
    jobs = [
        Job(job_id=i,
            submit_time_s=float(rng.uniform(0.0, duration_s)),
            cores=int(rng.integers(1, cores + 1)),
            runtime_s=float(rng.uniform(30.0, 2500.0)),
            cpu_intensity=float(rng.uniform(0.5, 1.0)))
        for i in range(n_jobs)
    ]
    scheduler = BackfillScheduler(cluster)
    placements, _ = scheduler.run(jobs, duration_s)
    return scheduler, placements, duration_s


class TestFleetUtilizationFromPlacements:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_placement_oracle(self, seed):
        scheduler, placements, duration_s = _random_placements(seed)
        for step in (60.0, 300.0, 600.0):
            columnar = scheduler.build_trace(placements, duration_s, step_s=step)
            oracle = build_trace_loop(scheduler, placements, duration_s,
                                      step_s=step)
            np.testing.assert_allclose(columnar.matrix, oracle.matrix,
                                       rtol=1e-12, atol=1e-12)
            assert columnar.node_ids == oracle.node_ids
            assert isinstance(columnar, FleetUtilization)

    def test_non_divisible_duration_matches_oracle(self):
        """duration_s not a multiple of step_s: both engines clip at
        duration_s, so the final partial interval agrees exactly."""
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        job = Job(job_id=0, submit_time_s=0.0, cores=4, runtime_s=200.0,
                  cpu_intensity=0.5)
        placements, _ = scheduler.run([job], 90.0)
        columnar = scheduler.build_trace(placements, 90.0, step_s=60.0)
        oracle = build_trace_loop(scheduler, placements, 90.0, step_s=60.0)
        np.testing.assert_allclose(columnar.matrix, oracle.matrix, rtol=1e-12)
        # 4/4 cores at 0.5 intensity: full first interval, half of the
        # second interval covered by the 90 s window.
        assert columnar.matrix[0, 0] == pytest.approx(0.5)
        assert columnar.matrix[0, 1] == pytest.approx(0.25)

    def test_non_divisible_step_stays_in_bounds(self):
        """A step that does not divide the window must not scatter off-grid.

        (The retained per-placement oracle can raise IndexError here — a
        latent seed limitation the columnar engine does not inherit.)
        """
        scheduler, placements, duration_s = _random_placements(0)
        trace = scheduler.build_trace(placements, duration_s, step_s=97.0)
        assert trace.sample_count == int(round(duration_s / 97.0))
        assert float(trace.matrix.max()) <= 1.0

    def test_empty_placements_zero_matrix(self):
        scheduler, _, duration_s = _random_placements(0)
        trace = scheduler.build_trace([], duration_s, step_s=60.0)
        assert trace.matrix.shape == (5, 60)
        assert not trace.matrix.any()

    def test_placements_outside_window_ignored(self):
        cluster = SimulatedCluster.homogeneous(2, 4)
        scheduler = BackfillScheduler(cluster)
        late = Job(job_id=0, submit_time_s=5000.0, cores=2, runtime_s=100.0)
        placements, _ = scheduler.run([late], 3600.0)
        trace = scheduler.build_trace(placements, 3600.0, step_s=60.0)
        oracle = build_trace_loop(scheduler, placements, 3600.0, step_s=60.0)
        np.testing.assert_array_equal(trace.matrix, oracle.matrix)
        assert not trace.matrix.any()

    def test_single_interval_partial_coverage(self):
        """A job inside one sample interval contributes its covered fraction."""
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        job = Job(job_id=0, submit_time_s=10.0, cores=2, runtime_s=30.0,
                  cpu_intensity=1.0)
        placements, _ = scheduler.run([job], 120.0)
        trace = scheduler.build_trace(placements, 120.0, step_s=60.0)
        # 2 cores of 4, for 30s of a 60s interval -> 0.25 in interval 0.
        assert trace.matrix[0, 0] == pytest.approx(0.25)
        assert trace.matrix[0, 1] == pytest.approx(0.0)

    def test_bad_node_cores_rejected(self):
        with pytest.raises(ValueError, match="one entry per node"):
            FleetUtilization.from_placements([], ["a", "b"], [4], 600.0)
        with pytest.raises(ValueError, match="positive"):
            FleetUtilization.from_placements([], ["a"], [0], 600.0)


class TestFleetUtilizationIndex:
    @pytest.fixture
    def fleet(self):
        matrix = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        return FleetUtilization(0.0, 60.0, ["a", "b", "c"], matrix)

    def test_is_a_utilization_trace(self, fleet):
        assert isinstance(fleet, UtilizationTrace)

    def test_row_lookup(self, fleet):
        assert fleet.row_of("b") == 1
        with pytest.raises(KeyError):
            fleet.row_of("zz")

    def test_node_view_is_readonly_and_zero_copy(self, fleet):
        view = fleet.node_view("c")
        np.testing.assert_array_equal(view, [0.5, 0.6])
        with pytest.raises(ValueError):
            view[0] = 1.0

    def test_per_node_views_shape(self, fleet):
        views = fleet.per_node_views()
        assert sorted(views) == ["a", "b", "c"]
        np.testing.assert_array_equal(views["a"], [0.1, 0.2])

    def test_node_series_and_subset(self, fleet):
        assert fleet.node_series("b").values[1] == pytest.approx(0.4)
        sub = fleet.subset(["c", "a"])
        assert sub.node_ids == ["c", "a"]
        np.testing.assert_array_equal(sub.matrix[0], [0.5, 0.6])
        with pytest.raises(KeyError):
            fleet.subset(["a", "nope"])

    def test_from_trace_promotion(self, fleet):
        plain = UtilizationTrace(0.0, 60.0, ["x", "y"],
                                 np.array([[0.5, 0.5], [0.25, 0.75]]))
        promoted = FleetUtilization.from_trace(plain)
        assert promoted.row_of("y") == 1
        assert FleetUtilization.from_trace(fleet) is fleet

    def test_busy_core_seconds(self, fleet):
        # sum over rows of mean-free utilisation * cores * step
        expected = ((0.1 + 0.2) * 8 + (0.3 + 0.4) * 8 + (0.5 + 0.6) * 4) * 60.0
        assert fleet.busy_core_seconds([8, 8, 4]) == pytest.approx(expected)
        with pytest.raises(ValueError):
            fleet.busy_core_seconds([8, 8])


class TestFleetPowerModel:
    @pytest.fixture
    def models(self):
        catalog = default_catalog()
        compute = NodePowerModel(catalog.node("cpu-compute-standard"))
        storage = NodePowerModel(catalog.node("storage-server"))
        small = NodePowerModel(catalog.node("cpu-compute-small"))
        return [compute, storage, small, compute]

    def test_matches_per_node_models(self, models):
        rng = np.random.default_rng(42)
        util = rng.uniform(0.0, 1.0, size=(len(models), 50))
        fleet = FleetPowerModel(models)
        rapl, dc, wall = fleet.scope_matrices(util)
        for row, model in enumerate(models):
            np.testing.assert_allclose(
                rapl[row], model.rapl_visible_power_w(util[row]), rtol=1e-12)
            np.testing.assert_allclose(
                dc[row], model.dc_power_w(util[row]), rtol=1e-12)
            np.testing.assert_allclose(
                wall[row], model.wall_power_w(util[row]), rtol=1e-12)

    def test_scope_accessors_and_affine(self, models):
        fleet = FleetPowerModel(models)
        u = np.full((len(models), 4), 0.5)
        np.testing.assert_allclose(fleet.rapl_w(u), fleet.scope_matrices(u)[0])
        np.testing.assert_allclose(fleet.dc_w(u), fleet.scope_matrices(u)[1])
        np.testing.assert_allclose(fleet.wall_w(u), fleet.scope_matrices(u)[2])
        a, b = fleet.affine("wall")
        assert a.shape == b.shape == (len(models), 1)
        with pytest.raises(ValueError, match="unknown scope"):
            fleet.affine("ac")

    def test_idle_and_max_wall_power(self, models):
        fleet = FleetPowerModel(models)
        for index, model in enumerate(models):
            assert fleet.idle_wall_power_w()[index] == pytest.approx(
                model.idle_wall_power_w, rel=1e-12)
            assert fleet.max_wall_power_w()[index] == pytest.approx(
                model.max_wall_power_w, rel=1e-12)

    def test_rejects_empty_and_bad_shapes(self, models):
        with pytest.raises(ValueError):
            FleetPowerModel([])
        fleet = FleetPowerModel(models)
        with pytest.raises(ValueError, match="shape"):
            fleet.scope_matrices(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="shape"):
            fleet.scope_matrices(np.zeros(4))


class TestLazyPowerTrace:
    @pytest.fixture
    def pair(self):
        """(columnar, oracle) power traces over one random utilisation."""
        catalog = default_catalog()
        models = [NodePowerModel(catalog.node("cpu-compute-standard"))] * 3 + [
            NodePowerModel(catalog.node("storage-server"))]
        rng = np.random.default_rng(7)
        util = UtilizationTrace(0.0, 60.0, ["a", "b", "c", "d"],
                                rng.uniform(0.0, 1.0, size=(4, 30)))
        return (PowerBreakdownTrace.from_utilization(util, models),
                from_utilization_loop(util, models))

    def test_scope_matrix_materialises_on_demand(self, pair):
        lazy, oracle = pair
        for scope in ("rapl", "dc", "wall"):
            np.testing.assert_allclose(lazy.scope_matrix(scope),
                                       oracle.scope_matrix(scope), rtol=1e-12)
        with pytest.raises(ValueError, match="unknown scope"):
            lazy.scope_matrix("ac")

    def test_reductions_match_oracle(self, pair):
        lazy, oracle = pair
        for scope in ("rapl", "dc", "wall"):
            np.testing.assert_allclose(lazy.total_series(scope).values,
                                       oracle.total_series(scope).values,
                                       rtol=1e-12)
            assert lazy.total_energy_kwh(scope) == pytest.approx(
                oracle.total_energy_kwh(scope), rel=1e-12)
            for node_id, kwh in oracle.per_node_energy_kwh(scope).items():
                assert lazy.per_node_energy_kwh(scope)[node_id] == pytest.approx(
                    kwh, rel=1e-12)
            assert lazy.mean_node_power_w(scope) == pytest.approx(
                oracle.mean_node_power_w(scope), rel=1e-12)

    def test_covered_series_partial(self, pair):
        lazy, oracle = pair
        rows = np.array([0, 2])
        expected = oracle.scope_matrix("wall")[rows].sum(axis=0)
        np.testing.assert_allclose(lazy.covered_series("wall", rows).values,
                                   expected, rtol=1e-12)
        # cache hit path returns the same values
        np.testing.assert_allclose(lazy.covered_series("wall", rows).values,
                                   expected, rtol=1e-12)

    def test_covered_series_boolean_mask(self, pair):
        """A full-length boolean mask selects the masked nodes, not all."""
        lazy, oracle = pair
        mask = np.array([True, False, True, False])
        expected = oracle.scope_matrix("wall")[[0, 2]].sum(axis=0)
        for trace in (lazy, oracle):
            np.testing.assert_allclose(
                trace.covered_series("wall", mask).values, expected, rtol=1e-12)
        with pytest.raises(ValueError, match="boolean coverage mask"):
            lazy.covered_series("wall", np.array([True, False]))

    def test_covered_series_duplicates_count_multiply(self, pair):
        """Duplicate indices behave like fancy row indexing (row counted twice)."""
        lazy, oracle = pair
        rows = np.array([1, 1, 3])
        expected = oracle.scope_matrix("wall")[rows].sum(axis=0)
        for trace in (lazy, oracle):
            np.testing.assert_allclose(
                trace.covered_series("wall", rows).values, expected, rtol=1e-12)

    def test_covered_series_rejects_out_of_range(self, pair):
        lazy, _ = pair
        with pytest.raises(IndexError):
            lazy.covered_series("wall", np.array([0, 7]))

    def test_node_series_lazy(self, pair):
        lazy, oracle = pair
        np.testing.assert_allclose(lazy.node_series("b", "wall").values,
                                   oracle.node_series("b", "wall").values,
                                   rtol=1e-12)
        with pytest.raises(KeyError):
            lazy.node_series("zz", "wall")

    def test_model_count_mismatch_rejected(self):
        util = UtilizationTrace(0.0, 60.0, ["a"], np.array([[0.5, 0.5]]))
        model = NodePowerModel(default_catalog().node("cpu-compute-standard"))
        with pytest.raises(ValueError, match="one power model per node"):
            PowerBreakdownTrace.from_utilization(util, [model] * 2)


class TestEngineSelection:
    def test_oracle_and_columnar_snapshots_agree(self, monkeypatch):
        config = build_iris_snapshot_config(node_scale=0.02)
        columnar = SnapshotExperiment(config).run()
        use_reference_substrate(monkeypatch)
        oracle = SnapshotExperiment(config).run()
        for row_old, row_new in zip(oracle.table2_rows(), columnar.table2_rows()):
            for key, old_value in row_old.items():
                if isinstance(old_value, float):
                    assert row_new[key] == pytest.approx(old_value, rel=1e-9)
                else:
                    assert row_new[key] == old_value
        np.testing.assert_allclose(
            columnar.facility_power_series().values,
            oracle.facility_power_series().values, rtol=1e-9)


class TestPersistentSubstrateCache:
    SPEC = dict(node_scale=0.02, campaign_seed=11)

    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = default_spec(**self.SPEC)
        first = SubstrateCache(persist_dir=tmp_path)
        result_a = Assessment.from_spec(spec, substrates=first).run()
        assert first.snapshot_runs == 1 and first.snapshot_loads == 0
        assert list(tmp_path.glob("*.json")) and list(tmp_path.glob("*.npz"))

        second = SubstrateCache(persist_dir=tmp_path)
        result_b = Assessment.from_spec(spec, substrates=second).run()
        assert second.snapshot_runs == 0 and second.snapshot_loads == 1
        assert result_b.total_kg == result_a.total_kg
        assert result_b.table2_rows() == result_a.table2_rows()
        np.testing.assert_array_equal(
            result_b.snapshot.facility_power_series().values,
            result_a.snapshot.facility_power_series().values)

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        spec = default_spec(**self.SPEC)
        Assessment.from_spec(spec, substrates=SubstrateCache(persist_dir=tmp_path)).run()
        for npz in tmp_path.glob("*.npz"):
            npz.write_bytes(b"not a zip archive")
        cache = SubstrateCache(persist_dir=tmp_path)
        result = Assessment.from_spec(spec, substrates=cache).run()
        assert cache.snapshot_runs == 1 and cache.snapshot_loads == 0
        assert result.total_kg > 0

    def test_version_skew_is_a_miss(self, tmp_path):
        import json

        spec = default_spec(**self.SPEC)
        Assessment.from_spec(spec, substrates=SubstrateCache(persist_dir=tmp_path)).run()
        for sidecar in tmp_path.glob("*.json"):
            payload = json.loads(sidecar.read_text())
            payload["version"] = SNAPSHOT_CACHE_VERSION + 1
            sidecar.write_text(json.dumps(payload))
        cache = SubstrateCache(persist_dir=tmp_path)
        Assessment.from_spec(spec, substrates=cache).run()
        assert cache.snapshot_runs == 1 and cache.snapshot_loads == 0

    def test_save_load_helpers_direct(self, tmp_path):
        config = build_iris_snapshot_config(node_scale=0.02)
        result = SnapshotExperiment(config).run()
        digest = snapshot_digest(("iris", 0.02), lambda s: None)
        save_snapshot_result(tmp_path, digest, result)
        loaded = load_snapshot_result(tmp_path, digest)
        assert loaded is not None
        assert loaded.total_best_estimate_kwh == result.total_best_estimate_kwh
        assert loaded.config.site_names == result.config.site_names
        for a, b in zip(result.site_results, loaded.site_results):
            assert a.per_node_utilization == b.per_node_utilization
            assert a.node_specs == b.node_specs
            assert a.scheduler_stats.as_dict() == b.scheduler_stats.as_dict()
            assert a.duration_hours == b.duration_hours
        assert load_snapshot_result(tmp_path, "0" * 64) is None

    def test_distinct_physical_keys_distinct_digests(self):
        factory = lambda spec: None  # noqa: E731 - identity only
        assert snapshot_digest(("iris", 0.02), factory) != \
               snapshot_digest(("iris", 0.05), factory)

    def test_digest_is_stable_for_qualname_less_factories(self):
        """functools.partial has no __qualname__; the digest must not embed
        a per-process memory address (which would make persistence never
        hit across processes)."""
        import functools

        def build(spec, scale):
            return None

        first = snapshot_digest(("iris", 1.0), functools.partial(build, scale=1))
        second = snapshot_digest(("iris", 1.0), functools.partial(build, scale=1))
        assert first == second

    def test_unwritable_persist_dir_warns_but_returns_result(self, tmp_path):
        """A cache-write failure must not cost the caller the simulation."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = SubstrateCache(persist_dir=blocker / "sub")
        with pytest.warns(RuntimeWarning, match="could not persist"):
            result = Assessment.from_spec(
                default_spec(**self.SPEC), substrates=cache).run()
        assert result.total_kg > 0
        assert cache.snapshot_runs == 1

    def test_batch_runner_cache_dir(self, tmp_path):
        spec = default_spec(node_scale=0.02)
        runner = BatchAssessmentRunner(spec, substrate_cache_dir=tmp_path)
        batch = runner.sweep(intensity=[100.0, 200.0])
        assert len(batch) == 2
        assert runner.substrates.persist_dir == tmp_path
        assert runner.substrates.snapshot_runs == 1
        assert list(tmp_path.glob("*.npz"))
        # a second runner over the same directory loads instead of simulating
        runner2 = BatchAssessmentRunner(spec, substrate_cache_dir=tmp_path)
        batch2 = runner2.sweep(intensity=[100.0, 200.0])
        assert runner2.substrates.snapshot_runs == 0
        assert runner2.substrates.snapshot_loads == 1
        assert batch2.totals_kg == batch.totals_kg

    def test_batch_runner_rejects_both_cache_arguments(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            BatchAssessmentRunner(substrates=SubstrateCache(),
                                  substrate_cache_dir=tmp_path)
