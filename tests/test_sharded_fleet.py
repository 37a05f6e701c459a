"""The out-of-core sharded fleet substrate.

Covers the shard store itself (build, reuse, versioning, dtype/layout
variants), the streaming power contraction against the dense oracle, the
experiment-level ``sharded`` engine (serial and parallel), and the
spec/CLI wiring (physical-key extension, default-omitting serialisation).
"""

import json

import numpy as np
import pytest

from repro.api import default_spec
from repro.api.spec import AssessmentSpec
from repro.power.fleet_power import ShardedPowerBreakdownTrace
from repro.power.node_power import NodePowerModel
from repro.power.traces import PowerBreakdownTrace
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import EXPERIMENT_ENGINES, SnapshotExperiment
from repro.workload.cluster import SimulatedCluster, SimulatedNode
from repro.workload.fleet import (
    SHARD_FORMAT_VERSION,
    SHARD_MANIFEST_NAME,
    FleetUtilization,
    ShardedFleetUtilization,
)
from repro.workload.jobs import JobGenerator, WorkloadProfile
from repro.workload.scheduler import BackfillScheduler

N_NODES = 30
DURATION_S = 4.0 * 3600.0
STEP_S = 60.0


@pytest.fixture(scope="module")
def scheduled():
    """A real scheduler run: placements + cluster shared by every test."""
    nodes = [SimulatedNode(index=i, node_id=f"n{i:03d}", cores=16, free_cores=16)
             for i in range(N_NODES)]
    cluster = SimulatedCluster(nodes)
    generator = JobGenerator(
        WorkloadProfile(target_utilization=0.6), cluster.total_cores,
        seed=7, max_cores_per_job=16)
    jobs = generator.generate(DURATION_S, warmup_s=3600.0)
    placements, _ = BackfillScheduler(cluster).run(jobs, DURATION_S)
    node_ids = [node.node_id for node in cluster.nodes]
    cores = [node.cores for node in cluster.nodes]
    return placements, node_ids, cores


@pytest.fixture(scope="module")
def dense_trace(scheduled):
    placements, node_ids, cores = scheduled
    return FleetUtilization.from_placements(placements, node_ids, cores,
                                            DURATION_S, step_s=STEP_S)


class TestShardStore:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("layout", ["node-major", "interval-major"])
    def test_matches_dense_builder(self, scheduled, dense_trace, tmp_path,
                                   dtype, layout):
        placements, node_ids, cores = scheduled
        store = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=7, dtype=dtype, layout=layout)
        tol = 1e-12 if dtype == "float64" else 1e-6
        np.testing.assert_allclose(store.to_dense().matrix,
                                   dense_trace.matrix, atol=tol)
        np.testing.assert_allclose(store.mean_per_node(),
                                   dense_trace.mean_per_node(), atol=tol)
        assert store.mean_utilization() == pytest.approx(
            dense_trace.mean_utilization(), abs=tol)
        np.testing.assert_allclose(store.node_series("n007").values,
                                   dense_trace.node_series("n007").values,
                                   atol=tol)
        assert store.busy_core_seconds(cores) == pytest.approx(
            dense_trace.busy_core_seconds(cores), rel=max(tol, 1e-12))
        assert store.shard_count == -(-N_NODES // 7)
        assert store.node_count == N_NODES
        assert store.sample_count == dense_trace.sample_count

    def test_shard_files_are_memmapped_not_loaded(self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
        store = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=8)
        shard = store.shard_array(0)
        assert isinstance(shard, np.memmap)
        lo, hi = store.shard_bounds(0)
        assert (lo, hi) == (0, 8)
        assert shard.shape == (8, store.sample_count)

    def test_directory_reused_when_key_matches(self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
        build = dict(step_s=STEP_S, shard_nodes=8, key="digest-1")
        first = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path, **build)
        # Rebuilding with NO placements but the same key must serve the
        # existing shards (proof the store, not the arguments, answered).
        reused = ShardedFleetUtilization.from_placements(
            [], node_ids, cores, DURATION_S, tmp_path, **build)
        np.testing.assert_array_equal(reused.to_dense().matrix,
                                      first.to_dense().matrix)
        assert reused.to_dense().matrix.max() > 0.0

    def test_key_mismatch_forces_rebuild(self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
        ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=8, key="digest-1")
        rebuilt = ShardedFleetUtilization.from_placements(
            [], node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=8, key="digest-2")
        assert rebuilt.to_dense().matrix.max() == 0.0

    def test_geometry_mismatch_forces_rebuild(self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
        ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=8, key="digest-1")
        rebuilt = ShardedFleetUtilization.from_placements(
            [], node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=16, key="digest-1")
        assert rebuilt.shard_nodes == 16
        assert rebuilt.to_dense().matrix.max() == 0.0

    def test_version_skew_is_a_rebuild_on_build_and_error_on_open(
            self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
        ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=8, key="digest-1")
        manifest_path = tmp_path / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = SHARD_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            ShardedFleetUtilization.open(tmp_path)
        rebuilt = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=8, key="digest-1")
        assert rebuilt.to_dense().matrix.max() > 0.0
        assert ShardedFleetUtilization.open(tmp_path).shard_count == \
            rebuilt.shard_count

    def test_invalid_parameters_rejected(self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
        with pytest.raises(ValueError, match="dtype"):
            ShardedFleetUtilization.from_placements(
                placements, node_ids, cores, DURATION_S, tmp_path,
                dtype="float16")
        with pytest.raises(ValueError, match="layout"):
            ShardedFleetUtilization.from_placements(
                placements, node_ids, cores, DURATION_S, tmp_path,
                layout="diagonal")
        with pytest.raises(ValueError, match="shard_nodes"):
            ShardedFleetUtilization.from_placements(
                placements, node_ids, cores, DURATION_S, tmp_path,
                shard_nodes=0)


class TestShardedPowerTrace:
    @pytest.fixture(scope="class")
    def models(self):
        from repro.inventory.catalog import default_catalog

        catalog = default_catalog()
        spec = catalog.node("cpu-compute-standard")
        return [NodePowerModel(spec)] * N_NODES

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("layout", ["node-major", "interval-major"])
    def test_reductions_match_dense_trace(self, scheduled, dense_trace, models,
                                          tmp_path, dtype, layout):
        placements, node_ids, cores = scheduled
        store = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=9, dtype=dtype, layout=layout)
        sharded = ShardedPowerBreakdownTrace(store, models)
        dense = PowerBreakdownTrace.from_utilization(dense_trace, models)
        rtol = 1e-12 if dtype == "float64" else 1e-6
        rows = np.array([0, 4, 4, 11, N_NODES - 1])
        for scope in ("rapl", "dc", "wall"):
            np.testing.assert_allclose(sharded.total_series(scope).values,
                                       dense.total_series(scope).values,
                                       rtol=rtol)
            np.testing.assert_allclose(
                sharded.covered_series(scope, rows).values,
                dense.covered_series(scope, rows).values, rtol=rtol)
            assert sharded.total_energy_kwh(scope) == pytest.approx(
                dense.total_energy_kwh(scope), rel=rtol)
            sharded_kwh = sharded.per_node_energy_kwh(scope)
            dense_kwh = dense.per_node_energy_kwh(scope)
            assert sharded_kwh.keys() == dense_kwh.keys()
            for nid, kwh in dense_kwh.items():
                assert sharded_kwh[nid] == pytest.approx(kwh, rel=rtol)
            np.testing.assert_allclose(
                sharded.node_series("n011", scope).values,
                dense.node_series("n011", scope).values, rtol=rtol)
        assert sharded.mean_node_power_w() == pytest.approx(
            dense.mean_node_power_w(), rel=rtol)

    def test_scope_and_model_count_validation(self, scheduled, models,
                                              tmp_path):
        placements, node_ids, cores = scheduled
        store = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path, step_s=STEP_S)
        with pytest.raises(ValueError, match="one power model per node"):
            ShardedPowerBreakdownTrace(store, models[:-1])
        sharded = ShardedPowerBreakdownTrace(store, models)
        with pytest.raises(ValueError, match="unknown scope"):
            sharded.total_series("psu")


class TestShardedEngine:
    @pytest.fixture(scope="class")
    def tiny_config(self):
        return build_iris_snapshot_config(node_scale=0.05)

    @pytest.fixture(scope="class")
    def dense_result(self, tiny_config):
        return SnapshotExperiment(tiny_config, engine="columnar").run()

    def _assert_matches_dense(self, dense, sharded):
        for row_dense, row_sharded in zip(dense.table2_rows(),
                                          sharded.table2_rows()):
            assert row_dense["site"] == row_sharded["site"]
            for method, value in row_dense.items():
                if isinstance(value, float):
                    assert row_sharded[method] == pytest.approx(
                        value, rel=1e-9, abs=1e-9), (row_dense["site"], method)
                else:
                    assert row_sharded[method] == value
        np.testing.assert_allclose(
            sharded.facility_power_series().values,
            dense.facility_power_series().values, rtol=1e-9)

    def test_sharded_engine_matches_dense(self, tiny_config, dense_result):
        sharded = SnapshotExperiment(tiny_config, engine="sharded",
                                     shard_nodes=16).run()
        self._assert_matches_dense(dense_result, sharded)

    def test_float32_interval_major_within_tolerance(self, tiny_config,
                                                     dense_result):
        sharded = SnapshotExperiment(
            tiny_config, engine="sharded", shard_nodes=16,
            shard_dtype="float32", shard_layout="interval-major").run()
        # The instruments quantise facility energy, so Table 2 absorbs the
        # float32 storage error entirely at this scale; the raw power
        # series agrees to float32 resolution.
        np.testing.assert_allclose(
            sharded.facility_power_series().values,
            dense_result.facility_power_series().values, rtol=1e-5)

    def test_process_pool_run_identical_to_serial(self, tiny_config):
        serial = SnapshotExperiment(tiny_config, engine="sharded",
                                    shard_nodes=16).run()
        pooled = SnapshotExperiment(tiny_config, engine="sharded",
                                    shard_nodes=16).run(max_workers=3)
        assert [r.site for r in pooled.site_results] == \
            [r.site for r in serial.site_results]
        np.testing.assert_array_equal(
            pooled.facility_power_series().values,
            serial.facility_power_series().values)
        for a, b in zip(serial.site_results, pooled.site_results):
            assert a.best_estimate_kwh == b.best_estimate_kwh
            assert a.mean_utilization == b.mean_utilization

    def test_persistent_shard_dir_populated_and_reused(self, tiny_config,
                                                       tmp_path):
        experiment = SnapshotExperiment(
            tiny_config, engine="sharded", shard_nodes=16,
            shard_dir=tmp_path, shard_key="digest-x")
        first = experiment.run()
        site_dirs = sorted(p.name for p in tmp_path.iterdir())
        assert site_dirs == sorted(
            f"site-{site.site}" for site in tiny_config.sites)
        mtimes = {p: (p / SHARD_MANIFEST_NAME).stat().st_mtime_ns
                  for p in tmp_path.iterdir()}
        second = experiment.run()
        # Matching manifests mean the shards were served, not rebuilt.
        for p, mtime in mtimes.items():
            assert (p / SHARD_MANIFEST_NAME).stat().st_mtime_ns == mtime
        assert second.total_best_estimate_kwh == first.total_best_estimate_kwh

    def test_unknown_engine_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unknown engine"):
            SnapshotExperiment(tiny_config, engine="chunked")
        assert "sharded" in EXPERIMENT_ENGINES


class TestSpecWiring:
    def test_default_spec_keeps_historical_key_and_dict(self):
        spec = default_spec(node_scale=0.25)
        assert spec.physical_key() == ("iris", 0.25, 24.0, 60.0, 1234)
        data = spec.to_dict()
        assert "engine" not in data
        assert "shard_nodes" not in data
        assert "shard_dtype" not in data
        assert AssessmentSpec.from_dict(data) == spec

    def test_sharded_spec_extends_key_and_round_trips(self):
        spec = default_spec(node_scale=0.25, engine="sharded",
                            shard_nodes=512, shard_dtype="float32")
        key = spec.physical_key()
        assert key[:5] == ("iris", 0.25, 24.0, 60.0, 1234)
        assert ("engine", "sharded") == key[5:7]
        assert key[7:] == (512, "float32")
        data = spec.to_dict()
        assert data["engine"] == "sharded"
        assert data["shard_nodes"] == 512
        assert data["shard_dtype"] == "float32"
        assert AssessmentSpec.from_dict(data) == spec

    @pytest.mark.parametrize("knobs", [
        dict(shard_nodes=16), dict(shard_dtype="float32"),
        dict(shard_nodes=16, shard_dtype="float32"),
    ])
    def test_shard_fields_require_sharded_engine(self, knobs):
        """A dense spec carrying shard knobs would share the plain spec's
        physical key (one substrate) but serialise differently (a second
        catalog address), so it is rejected outright."""
        with pytest.raises(ValueError, match="only apply to engine 'sharded'"):
            default_spec(node_scale=0.02, **knobs)
        with pytest.raises(ValueError, match="only apply to engine 'sharded'"):
            AssessmentSpec.from_dict(dict(node_scale=0.02, **knobs))
        assert default_spec(node_scale=0.02, engine="sharded",
                            **knobs).to_dict()["engine"] == "sharded"

    def test_legacy_oracle_engine_rejected(self):
        with pytest.raises(ValueError, match="engine 'oracle' was removed"):
            AssessmentSpec.from_dict({"node_scale": 0.25, "engine": "oracle"})

    def test_invalid_engine_fields_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            default_spec(engine="chunked")
        with pytest.raises(ValueError, match="shard_nodes"):
            default_spec(shard_nodes=0)
        with pytest.raises(ValueError, match="shard_dtype"):
            default_spec(shard_dtype="float16")


class TestCliWiring:
    def test_engine_flags_reach_the_spec(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "out.json"
        code = main(["assess", "--scale", "0.02", "--engine", "sharded",
                     "--shard-nodes", "8", "--dtype", "float32",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["engine"] == "sharded"
        assert payload["spec"]["shard_nodes"] == 8
        assert payload["spec"]["shard_dtype"] == "float32"
        assert payload["summary"]["total_kg"] > 0

    @pytest.mark.parametrize("argv", [
        ["assess", "--scale", "0.02", "--shard-nodes", "8"],
        ["assess", "--scale", "0.02", "--dtype", "float32"],
        ["assess", "--scale", "0.02", "--engine", "columnar",
         "--shard-nodes", "8"],
        ["assess", "--scale", "0.02", "--engine", "sharded",
         "--shard-nodes", "0"],
    ])
    def test_shard_knobs_without_sharded_engine_are_usage_errors(
            self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
