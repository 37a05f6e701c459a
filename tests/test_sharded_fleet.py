"""The out-of-core sharded fleet substrate and the size rule that picks it.

Covers the shard store itself (build, versioning), the streaming power
contraction against the dense oracle, the size rule
(:func:`~repro.snapshot.experiment.out_of_core`) and the experiment,
``Assessment`` and CLI runs it sends out of core (each ≤1e-9 from the
dense run, each leaving no shard bytes behind), and the legacy execution
fields older spec documents carry.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from repro.api import Assessment, SubstrateCache, default_spec
from repro.api.persistence import snapshot_digest
from repro.api.registry import INVENTORY_SOURCES
from repro.api.spec import AssessmentSpec
from repro.power.fleet_power import ShardedPowerBreakdownTrace
from repro.power.node_power import NodePowerModel
from repro.power.traces import PowerBreakdownTrace
from repro.snapshot import experiment
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment, out_of_core
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

#: Samples in the default 24 h snapshot at 60 s.
SNAPSHOT_SAMPLES = 1440


@pytest.fixture
def limit_nodes(monkeypatch):
    """Shrink the in-memory limit to ``nodes`` rows of a default snapshot."""
    def shrink(nodes):
        monkeypatch.setattr(experiment, "DENSE_TRACE_LIMIT_BYTES",
                            nodes * SNAPSHOT_SAMPLES * 8)
    return shrink


def assert_matches_dense(dense, sharded):
    """Every Table 2 figure and the facility series agree to ≤1e-9."""
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


@pytest.fixture
def scratch(monkeypatch, tmp_path):
    """Point the system temporary directory at an empty ``scratch/``."""
    directory = tmp_path / "scratch"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


@pytest.fixture
def built_stores(monkeypatch):
    """Spy on ``from_placements``: ``{site: (shard_nodes, shard_count,
    bytes on disk)}``, measured before the experiment removes the store."""
    built = {}
    build = ShardedFleetUtilization.from_placements.__func__

    def spy(cls, placements, node_ids, *args, **kwargs):
        store = build(cls, placements, node_ids, *args, **kwargs)
        site = node_ids[0].rsplit("-", 2)[0]
        built[site] = (store.shard_nodes, store.shard_count,
                       sum(os.path.getsize(path)
                           for path in store.directory.iterdir()))
        return store

    monkeypatch.setattr(ShardedFleetUtilization, "from_placements",
                        classmethod(spy))
    return built


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
    def test_matches_dense_builder(self, scheduled, dense_trace, tmp_path):
        placements, node_ids, cores = scheduled
        store = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=7)
        tol = 1e-12
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
            dense_trace.busy_core_seconds(cores), rel=tol)
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

    def test_version_skew_is_an_error_on_open(self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
        built = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=8)
        assert ShardedFleetUtilization.open(tmp_path).shard_count == \
            built.shard_count
        manifest_path = tmp_path / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = SHARD_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            ShardedFleetUtilization.open(tmp_path)

    def test_invalid_parameters_rejected(self, scheduled, tmp_path):
        placements, node_ids, cores = scheduled
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

    def test_reductions_match_dense_trace(self, scheduled, dense_trace, models,
                                          tmp_path):
        placements, node_ids, cores = scheduled
        store = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, tmp_path,
            step_s=STEP_S, shard_nodes=9)
        sharded = ShardedPowerBreakdownTrace(store, models)
        dense = PowerBreakdownTrace.from_utilization(dense_trace, models)
        rtol = 1e-12
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


class TestSizeRule:
    def test_full_scale_default_sites_stay_in_memory(self):
        config = build_iris_snapshot_config()
        assert config.duration_s / config.trace_step_s == SNAPSHOT_SAMPLES
        for site in config.sites:
            assert not out_of_core(site, config), site.site
        largest = max(site.node_count for site in config.sites)
        assert largest * SNAPSHOT_SAMPLES * 8 * 26 < \
            experiment.DENSE_TRACE_LIMIT_BYTES

    def test_long_window_goes_out_of_core_by_itself(self):
        config = build_iris_snapshot_config(duration_hours=30 * 24.0)
        by_site = {site.site: out_of_core(site, config)
                   for site in config.sites}
        # DUR: 876 nodes x 43,200 samples x 8 B = 289 MiB.
        assert [site for site, big in by_site.items() if big] == ["DUR"]

    def test_limit_is_per_site_and_exclusive(self, limit_nodes):
        config = build_iris_snapshot_config(node_scale=0.05)
        limit_nodes(6)
        by_site = {site.site: out_of_core(site, config)
                   for site in config.sites}
        assert by_site == {"QMUL": False, "CAM": False, "DUR": True,
                           "STFC CLOUD": True, "STFC SCARF": True,
                           "IMP": False}

    def test_shards_are_sized_to_the_limit(self, limit_nodes, built_stores):
        config = build_iris_snapshot_config(node_scale=0.05)
        limit_nodes(5)
        SnapshotExperiment(config).run()
        shard_nodes, shard_count, _ = built_stores["DUR"]
        assert shard_nodes == 5
        assert shard_count == -(-44 // 5)
        # Sites under the limit never build a shard store.
        assert "CAM" not in built_stores


class TestShardedEngine:
    @pytest.fixture(scope="class")
    def tiny_config(self):
        return build_iris_snapshot_config(node_scale=0.05)

    @pytest.fixture(scope="class")
    def dense_result(self, tiny_config):
        return SnapshotExperiment(tiny_config).run()

    @pytest.fixture
    def all_out_of_core(self, tiny_config, limit_nodes):
        limit_nodes(2)
        assert all(out_of_core(site, tiny_config)
                   for site in tiny_config.sites)

    def test_sharded_engine_matches_dense(self, tiny_config, dense_result,
                                          all_out_of_core):
        assert_matches_dense(dense_result,
                             SnapshotExperiment(tiny_config).run())

    def test_shard_stores_are_removed(self, tiny_config, all_out_of_core,
                                      scratch, built_stores):
        SnapshotExperiment(tiny_config).run()
        assert sorted(built_stores) == sorted(
            site.site for site in tiny_config.sites)
        assert all(size > 0 for _, _, size in built_stores.values())
        assert list(scratch.iterdir()) == []

    def test_failing_reduction_still_removes_its_store(
            self, tiny_config, all_out_of_core, scratch, monkeypatch):
        def fail(*args, **kwargs):
            assert list(scratch.iterdir()), "no shard store to stream"
            raise RuntimeError("reduction failed")

        monkeypatch.setattr(experiment.MeasurementCampaign, "measure_site",
                            fail)
        with pytest.raises(RuntimeError, match="reduction failed"):
            SnapshotExperiment(tiny_config).run()
        assert list(scratch.iterdir()) == []


class TestPersistedOutOfCore:
    def test_assessment_matches_dense_under_its_own_digest(self, limit_nodes,
                                                           scratch, tmp_path):
        spec = default_spec(node_scale=0.02)
        dense = Assessment.from_spec(
            spec, substrates=SubstrateCache(persist_dir=tmp_path / "dense")
        ).run().snapshot
        limit_nodes(1)
        cache_dir = tmp_path / "cache"
        sharded = Assessment.from_spec(
            spec, substrates=SubstrateCache(persist_dir=cache_dir)
        ).run().snapshot
        assert_matches_dense(dense, sharded)

        factory = INVENTORY_SOURCES.get(spec.inventory)
        dense_digest = snapshot_digest(spec.physical_key(), factory)
        digest = snapshot_digest(spec.physical_key() + ("out-of-core",),
                                 factory)
        assert digest != dense_digest
        assert (tmp_path / "dense" / f"{dense_digest}.npz").exists()
        # The shard stores were scratch: only the snapshot entry remains.
        assert sorted(p.name for p in cache_dir.iterdir()) == \
            [f"{digest}.json", f"{digest}.npz"]
        assert list(scratch.iterdir()) == []

        reloaded = SubstrateCache(persist_dir=cache_dir)
        assert reloaded.snapshot(spec).total_best_estimate_kwh == \
            sharded.total_best_estimate_kwh
        assert (reloaded.snapshot_loads, reloaded.snapshot_runs) == (1, 0)


class TestSpecWiring:
    def test_default_spec_keeps_historical_key_and_dict(self):
        spec = default_spec(node_scale=0.25)
        assert spec.physical_key() == ("iris", 0.25, 24.0, 60.0, 1234)
        data = spec.to_dict()
        assert "engine" not in data
        assert "shard_nodes" not in data
        assert "shard_dtype" not in data
        assert AssessmentSpec.from_dict(data) == spec

    def test_legacy_default_execution_fields_are_dropped(self):
        spec = default_spec(node_scale=0.25)
        legacy = dict(spec.to_dict(), engine="columnar", shard_nodes=4096,
                      shard_dtype="float64")
        assert AssessmentSpec.from_dict(legacy) == spec
        assert AssessmentSpec.from_dict(legacy).to_dict() == spec.to_dict()

    def test_legacy_oracle_engine_rejected(self):
        with pytest.raises(ValueError, match="engine 'oracle' was removed"):
            AssessmentSpec.from_dict({"node_scale": 0.25, "engine": "oracle"})

    def test_invalid_engine_fields_rejected(self):
        for field, value in (("engine", "sharded"), ("engine", "chunked"),
                             ("shard_nodes", 16), ("shard_nodes", 0),
                             ("shard_dtype", "float32"),
                             ("shard_dtype", "float16")):
            with pytest.raises(ValueError,
                               match=f"{field} .* chosen from the fleet size"):
                AssessmentSpec.from_dict({"node_scale": 0.25, field: value})


class TestCliWiring:
    @pytest.mark.parametrize("flags", [
        ["--engine", "sharded"], ["--shard-nodes", "8"],
        ["--dtype", "float32"],
    ])
    def test_removed_substrate_flags_are_usage_errors(self, flags, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["assess", "--scale", "0.02", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_of_core_assess_matches_dense(self, limit_nodes, tmp_path):
        """``repro assess --scale 0.02 --substrate-cache-dir`` answers with
        the dense run's summary digest when every site goes out of core,
        and leaves no shard bytes behind: the cache holds only the
        snapshot's ``.npz`` + ``.json`` entry."""
        from repro.cli import main

        def assess(name, cache_dir):
            out = tmp_path / name
            assert main(["assess", "--scale", "0.02",
                         "--substrate-cache-dir", str(cache_dir),
                         "--format", "json", "--output", str(out)]) == 0
            return json.loads(out.read_text())

        def digest(doc):
            return hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest()

        dense = assess("dense.json", tmp_path / "dense-substrates")
        limit_nodes(1)
        cache_dir = tmp_path / "substrates"
        sharded = assess("sharded.json", cache_dir)
        assert dense["spec"] == sharded["spec"]
        assert digest(dense["summary"]) == digest(sharded["summary"])
        assert sorted(p.suffix for p in cache_dir.iterdir()) == \
            [".json", ".npz"]
