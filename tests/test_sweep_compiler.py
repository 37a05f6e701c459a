"""Differential tests for the columnar sweep compiler.

The compiled batch engine must be indistinguishable from the per-spec
reference loop (``oracles.batch``): byte-identical serialised results in identical order over
random grids mixing columnar axes (intensity, PUE, lifetime, per-server
embodied, grid) with fallback axes (non-linear amortisation, named
embodied estimators), while simulating exactly one substrate per physical
group.  The planner's partitioning, the duplicate-spec dedupe, the
fail-fast snapshot preparation and the cross-engine catalog digests are
pinned alongside.
"""

import hashlib
import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import batch as oracle

from repro.api import (
    Assessment,
    BatchAssessmentRunner,
    SubstrateCache,
    columnar_eligible,
    compile_sweep,
    default_spec,
)
from repro.api.columnar import COLUMNAR, FALLBACK, temporal_group_key
from repro.catalog import RunCatalog
from repro.cli import main

#: The pinned physical configuration the differential grids share.
PHYSICAL = dict(node_scale=0.02, campaign_seed=3)

#: Axis values the random grids draw from; the last three axes are the
#: fallback-inducing ones (a non-linear policy, a named estimator) and
#: the grid axis (columnar: each point stacks one resolved intensity).
AXIS_POOL = {
    "intensity": (50, 80.5, 175.0, 300.0),
    "pue": (1.05, 1.3, 1.6),
    "lifetime": (3.0, 5.0, 7.5),
    "per_server_kgco2": (900.0, 1318.0),
    "amortization": ("linear", "utilization-weighted"),
    "embodied_estimator": ("catalog", "bottom-up"),
    "grid": ("uk-november-2022", "synthetic-gb", "region-GB"),
}


def canonical(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@st.composite
def sweep_axes(draw):
    """1-3 random axes, each with 1-3 values (duplicates allowed, so the
    dedupe path is exercised under the differential too)."""
    names = draw(st.lists(st.sampled_from(sorted(AXIS_POOL)),
                          min_size=1, max_size=3, unique=True))
    if "grid" in names and "intensity" in names:
        names.remove("intensity")
    return {
        name: draw(st.lists(st.sampled_from(AXIS_POOL[name]),
                            min_size=1, max_size=3))
        for name in names
    }


@pytest.fixture(scope="module")
def substrates():
    """One cache shared by the non-hypothesis tests: every grid here
    pins the same physical configuration, so the whole module costs one
    simulation."""
    return SubstrateCache()


class TestSweepDifferential:
    @given(axes=sweep_axes())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_columnar_sweep_equals_per_spec_assessments(self, axes):
        runner = BatchAssessmentRunner(default_spec(**PHYSICAL),
                                       substrates=SubstrateCache())
        batch = runner.sweep(**axes)
        specs = runner.grid_specs(**axes)
        assert len(batch) == len(specs)
        oracle_cache = SubstrateCache()
        for result, spec in zip(batch, specs):
            expected = Assessment(spec, substrates=oracle_cache).run()
            assert canonical(result) == canonical(expected)
        assert runner.substrates.snapshot_runs == len(
            {spec.physical_key() for spec in specs})

    def test_physical_axis_simulates_once_per_group(self):
        cache = SubstrateCache()
        axes = dict(scale=[0.02, 0.03], pue=[1.1, 1.3])
        col = BatchAssessmentRunner(
            default_spec(campaign_seed=3), substrates=cache).sweep(**axes)
        assert cache.snapshot_runs == 2
        ref = oracle.sweep(BatchAssessmentRunner(
            default_spec(campaign_seed=3), substrates=cache), **axes)
        assert [canonical(r) for r in col] == [canonical(r) for r in ref]

    def test_temporal_sweep_matches_reference(self, substrates):
        axes = dict(shift_hours=[0.0, 6.0], defer_fraction=[0.0, 0.25],
                    pue=[1.1, 1.3])
        col = BatchAssessmentRunner(
            default_spec(**PHYSICAL),
            substrates=substrates).sweep_temporal(**axes)
        ref = oracle.sweep_temporal(BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=substrates), **axes)
        assert [canonical(r) for r in col] == [canonical(r) for r in ref]

    def test_temporal_grid_axis_matches_reference(self, substrates):
        axes = dict(grid=["uk-november-2022", "region-GB"],
                    shift_hours=[0.0, 6.0])
        col = BatchAssessmentRunner(
            default_spec(**PHYSICAL),
            substrates=substrates).sweep_temporal(**axes)
        ref = oracle.sweep_temporal(BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=substrates), **axes)
        assert [canonical(r) for r in col] == [canonical(r) for r in ref]

    def test_portfolio_sweep_matches_reference(self, substrates):
        splits = [[0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3]]
        col = BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=substrates).sweep_portfolio(
                ["GB", "FR", "PL"], load_split=splits)
        ref = oracle.sweep_portfolio(BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=substrates),
            ["GB", "FR", "PL"], load_split=splits)
        assert [canonical(r) for r in col.results] == \
               [canonical(r) for r in ref.results]


class TestPlanner:
    def test_columnar_eligibility(self):
        base = default_spec(**PHYSICAL)
        assert columnar_eligible(base)
        assert columnar_eligible(base.replace(per_server_kgco2=900.0))
        assert columnar_eligible(
            base.replace(embodied_estimator="bottom-up",
                         per_server_kgco2=900.0))
        assert not columnar_eligible(
            base.replace(amortization="utilization-weighted"))
        assert not columnar_eligible(
            base.replace(embodied_estimator="bottom-up"))
        assert not columnar_eligible(
            base.replace(amortization="no-such-policy"))

    def test_compile_sweep_partitions(self):
        base = default_spec(**PHYSICAL)
        specs = [
            base.replace(pue=1.1),
            base.replace(amortization="utilization-weighted"),
            base.replace(embodied_estimator="bottom-up"),
            base.replace(embodied_estimator="bottom-up",
                         per_server_kgco2=900.0),
            base.replace(node_scale=0.03),
        ]
        plan = compile_sweep(specs)
        assert plan.dispositions == (
            COLUMNAR, FALLBACK, FALLBACK, COLUMNAR, COLUMNAR)
        assert len(plan.groups) == 2  # two physical keys among eligible points
        assert plan.count(COLUMNAR) == 3
        assert plan.count(FALLBACK) == 2
        assert sorted(i for group in plan.groups for i in group) == [0, 3, 4]

    def test_temporal_group_key_collapses_scenario_fields(self):
        base = default_spec(**PHYSICAL)
        scenario = base.replace(shift_hours=6.0, defer_fraction=0.2,
                                pue=1.5, lifetime_years=3.0)
        assert temporal_group_key(scenario) == temporal_group_key(base)
        grid_bound = base.replace(grid="region-GB",
                                  carbon_intensity_g_per_kwh=None)
        assert temporal_group_key(grid_bound) != temporal_group_key(base)


class TestDedupe:
    def test_duplicate_specs_evaluate_once(self, substrates, tmp_path):
        runner = BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=substrates,
            catalog=tmp_path / "runs.db")
        batch = runner.sweep(intensity=[100.0, 100.0, 200.0])
        assert len(batch) == 3
        # Duplicate positions share one evaluation (one result object,
        # identical rows) and the catalog records each distinct spec once.
        assert batch[0] is batch[1]
        rows = batch.as_rows()
        assert rows[0] == rows[1]
        with RunCatalog(tmp_path / "runs.db", create=False) as catalog:
            assert catalog.count() == 2

    def test_duplicate_specs_evaluate_once_reference_engine(
            self, substrates, monkeypatch):
        """Dedupe happens ahead of the evaluator, so it holds with the
        per-spec loop swapped in too."""
        monkeypatch.setattr(BatchAssessmentRunner, "_evaluate_assessments",
                            oracle.evaluate_assessments)
        runner = BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=substrates)
        batch = runner.sweep(lifetime=[5.0, 5.0, 3.0])
        assert len(batch) == 3
        assert batch[0] is batch[1]
        assert batch[0] is not batch[2]


class TestPrepareSnapshotsFailFast:
    def _specs(self, n):
        return [default_spec(node_scale=round(0.01 + 0.001 * i, 3))
                for i in range(n)]

    def test_first_submitted_failure_propagates(self, monkeypatch):
        cache = SubstrateCache()
        specs = self._specs(6)

        def crash(spec):
            raise RuntimeError(f"boom-{spec.node_scale}")

        monkeypatch.setattr(cache, "snapshot", crash)
        runner = BatchAssessmentRunner(default_spec(), substrates=cache,
                                       max_workers=2)
        with pytest.raises(RuntimeError) as excinfo:
            runner._prepare_snapshots(specs)
        # Every simulation crashed, but the surfaced error is the first
        # in submission order — deterministic regardless of thread timing.
        assert str(excinfo.value) == f"boom-{specs[0].node_scale}"

    def test_crash_cancels_outstanding_simulations(self, monkeypatch):
        cache = SubstrateCache()
        specs = self._specs(8)
        calls = []
        lock = threading.Lock()

        def crash_first(spec):
            with lock:
                calls.append(spec.node_scale)
            if spec.node_scale == specs[0].node_scale:
                raise RuntimeError("injected simulation failure")
            time.sleep(0.1)

        monkeypatch.setattr(cache, "snapshot", crash_first)
        runner = BatchAssessmentRunner(default_spec(), substrates=cache,
                                       max_workers=2)
        with pytest.raises(RuntimeError, match="injected simulation failure"):
            runner._prepare_snapshots(specs)
        # The failure cancelled the queued simulations: the siblings a
        # worker had already picked up may finish, but the rest never
        # start (the old pool.map drained all eight to completion).
        assert len(calls) < len(specs)


class TestCatalogParity:
    def test_catalog_digests_shared_across_engines(self, substrates, tmp_path):
        """A sweep recorded by the per-spec loop is served, byte-identical,
        to the compiled engine — catalog keys and payloads don't move with
        the engine."""
        db = tmp_path / "runs.db"
        axes = dict(intensity=[50, 175.0], pue=[1.1, 1.3])
        recorded = oracle.sweep(BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=substrates, catalog=db),
            **axes)
        serving_cache = SubstrateCache()
        served = BatchAssessmentRunner(
            default_spec(**PHYSICAL), substrates=serving_cache,
            catalog=db).sweep(**axes)
        assert serving_cache.snapshot_runs == 0
        assert all(result.served_from_catalog for result in served)
        assert [json.dumps(r.summary(), sort_keys=True) for r in served] == \
               [json.dumps(r.summary(), sort_keys=True) for r in recorded]


class TestCliDigests:
    def test_sweep_csv_matches_per_spec_loop(self, monkeypatch, tmp_path):
        """``repro assess --sweep`` over the 12-point intensity x PUE x
        amortization grid (columnar and fallback points) writes a
        byte-identical CSV with the per-spec loop swapped in."""
        def sweep_csv(name):
            out = tmp_path / name
            assert main(["assess", "--scale", "0.02",
                         "--sweep", "intensity=50,175,300",
                         "--sweep", "pue=1.1,1.3",
                         "--sweep", "amortization=linear,utilization-weighted",
                         "--format", "csv", "--output", str(out)]) == 0
            return out.read_bytes()

        columnar = sweep_csv("columnar.csv")
        monkeypatch.setattr(BatchAssessmentRunner, "_evaluate_assessments",
                            oracle.evaluate_assessments)
        reference = sweep_csv("reference.csv")
        assert (hashlib.sha256(columnar).hexdigest()
                == hashlib.sha256(reference).hexdigest())
        assert len(columnar.decode().strip().splitlines()) == 13
