"""Read-through serving: every façade's ``catalog=`` hook.

The contract under test: the first run of a spec simulates and records;
a repeat of the same spec is **served** from the catalog with *zero*
simulations, and what it serves is bit-identical to the live result's
canonical serialisation.  Each façade (assessment, temporal, static and
temporal ensembles, portfolio, batch) gets the same treatment.
"""

import json

import numpy as np
import pytest

from repro.api import (
    Assessment,
    BatchAssessmentRunner,
    SubstrateCache,
    TemporalAssessment,
    default_spec,
)
from repro.catalog import (
    CatalogError,
    CatalogRecorder,
    RunCatalog,
    ServedAssessmentResult,
)
from repro.catalog.store import _canonical_payload_json
from repro.portfolio import PortfolioRunner, PortfolioSpec
from repro.uncertainty import EnsembleRunner, Normal, TemporalEnsembleRunner

#: Small but multi-site: every hook simulates in well under a second.
SCALE = 0.02


def canonical(document):
    """The payload exactly as the catalog serialises and serves it."""
    return json.loads(_canonical_payload_json(document))


@pytest.fixture()
def run_catalog(tmp_path):
    with RunCatalog(tmp_path / "runs.db") as cat:
        yield cat


@pytest.fixture()
def recorder(run_catalog):
    return CatalogRecorder(run_catalog)


def spec(**overrides):
    return default_spec(node_scale=SCALE, **overrides)


class TestCoercion:
    def test_none_passes_through(self):
        assert CatalogRecorder.coerce(None) is None

    def test_recorder_passes_through(self, recorder):
        assert CatalogRecorder.coerce(recorder) is recorder

    def test_catalog_and_path_wrap(self, run_catalog, tmp_path):
        assert isinstance(CatalogRecorder.coerce(run_catalog),
                          CatalogRecorder)
        wrapped = CatalogRecorder.coerce(tmp_path / "fresh.db")
        assert wrapped.catalog.path == tmp_path / "fresh.db"
        wrapped.catalog.close()

    def test_junk_rejected(self):
        with pytest.raises(TypeError, match="RunCatalog or a path"):
            CatalogRecorder(42)

    def test_with_tags(self, recorder):
        tagged = recorder.with_tags("nightly", "ci")
        assert tagged.tags == ("nightly", "ci")
        assert tagged.catalog is recorder.catalog


class TestAssessmentServing:
    def test_repeat_is_served_bit_identical_with_zero_simulation(
            self, run_catalog):
        live = Assessment.from_spec(
            spec(), substrates=SubstrateCache(),
            catalog=CatalogRecorder(run_catalog)).run()
        assert not getattr(live, "served_from_catalog", False)

        # A brand-new substrate cache: any simulation would be counted.
        substrates = SubstrateCache()
        served = Assessment.from_spec(
            spec(), substrates=substrates,
            catalog=CatalogRecorder(run_catalog)).run()
        assert substrates.snapshot_runs == 0
        assert isinstance(served, ServedAssessmentResult)
        assert served.served_from_catalog
        assert served.as_dict() == canonical(live.as_dict())
        assert served.total_kg == live.total_kg
        assert served.summary() == canonical(live.summary())
        assert served.table2_rows() == canonical(live.table2_rows())
        assert served.spec == live.spec

    def test_different_spec_is_a_miss(self, run_catalog, recorder):
        Assessment.from_spec(spec(), catalog=recorder).run()
        other = Assessment.from_spec(spec(pue=1.6), catalog=recorder).run()
        assert not getattr(other, "served_from_catalog", False)
        assert run_catalog.count() == 2

    def test_fluent_builders_propagate_catalog(self, run_catalog, recorder):
        first = (Assessment.from_spec(spec(), catalog=recorder)
                 .with_pue(1.6).run())
        again = (Assessment.from_spec(spec(), catalog=recorder)
                 .with_pue(1.6).run())
        assert again.served_from_catalog
        assert again.total_kg == first.total_kg

    def test_record_carries_kind_tags_and_duration(self, run_catalog):
        rec = CatalogRecorder(run_catalog, tags=("smoke",))
        Assessment.from_spec(spec(), catalog=rec).run()
        record = run_catalog.runs()[0]
        assert record.kind == "assess"
        assert record.tags == ("smoke",)
        assert record.duration_s > 0

    def test_run_live_bypasses_catalog(self, recorder):
        Assessment.from_spec(spec(), catalog=recorder).run()
        live = Assessment.from_spec(spec(), catalog=recorder).run_live()
        assert not getattr(live, "served_from_catalog", False)


class TestPolicies:
    def test_serve_false_records_but_never_serves(self, run_catalog):
        rec = CatalogRecorder(run_catalog, serve=False)
        Assessment.from_spec(spec(), catalog=rec).run()
        again = Assessment.from_spec(spec(), catalog=rec).run()
        assert not getattr(again, "served_from_catalog", False)
        assert run_catalog.count() == 1  # identical re-record is a no-op

    def test_record_false_serves_but_never_writes(self, run_catalog):
        CatalogRecorder(run_catalog).run(
            "assess", {"k": 1}, lambda: _FakeResult({"summary": {}}))
        read_only = CatalogRecorder(run_catalog, record=False)
        read_only.run("assess", {"k": 2}, lambda: _FakeResult({"summary": {}}))
        assert run_catalog.count() == 1
        served = read_only.run("assess", {"k": 1}, _forbidden)
        assert served.served_from_catalog

    def test_can_serve(self, run_catalog, recorder):
        assert not recorder.can_serve("assess", spec().to_dict())
        Assessment.from_spec(spec(), catalog=recorder).run()
        assert recorder.can_serve("assess", spec().to_dict())
        assert not recorder.can_serve("temporal", spec().to_dict())

    def test_digest_hit_with_spec_mismatch_refused(self, run_catalog,
                                                   recorder):
        Assessment.from_spec(spec(), catalog=recorder).run()
        record = run_catalog.runs()[0]
        # Corrupt the stored spec without touching its digest column.
        tampered = dict(record.spec, pue=9.9)
        with run_catalog._lock, run_catalog._conn:
            run_catalog._conn.execute(
                "UPDATE runs SET spec_json = ? WHERE run_id = ?",
                (json.dumps(tampered, sort_keys=True), record.run_id))
        with pytest.raises(CatalogError, match="inconsistent"):
            recorder.serve("assess", spec().to_dict())


class TestTemporalServing:
    def test_repeat_served_bit_identical(self, run_catalog):
        live = TemporalAssessment.from_spec(
            spec(), catalog=CatalogRecorder(run_catalog)).run()
        substrates = SubstrateCache()
        served = TemporalAssessment.from_spec(
            spec(), substrates=substrates,
            catalog=CatalogRecorder(run_catalog)).run()
        assert substrates.snapshot_runs == 0
        assert served.served_from_catalog
        assert served.as_dict() == canonical(live.as_dict())
        assert served.summary()["total_kg"] == pytest.approx(
            live.total_kg, rel=0, abs=0)
        assert run_catalog.runs()[0].kind == "temporal"

    def test_temporal_and_assess_do_not_cross_serve(self, run_catalog,
                                                    recorder):
        Assessment.from_spec(spec(), catalog=recorder).run()
        temporal = TemporalAssessment.from_spec(spec(),
                                                catalog=recorder).run()
        assert not getattr(temporal, "served_from_catalog", False)


class TestEnsembleServing:
    def test_repeat_draw_served(self, run_catalog):
        runner = EnsembleRunner(spec(), catalog=CatalogRecorder(run_catalog))
        live = runner.run(n_samples=64, seed=3)
        substrates = SubstrateCache()
        served = EnsembleRunner(
            spec(), substrates=substrates,
            catalog=CatalogRecorder(run_catalog)).run(n_samples=64, seed=3)
        assert substrates.snapshot_runs == 0
        assert served.served_from_catalog
        assert served.as_dict() == canonical(live.as_dict())
        assert run_catalog.runs()[0].kind == "uncertainty"

    def test_draw_parameters_are_part_of_the_address(self, run_catalog,
                                                     recorder):
        EnsembleRunner(spec(), catalog=recorder).run(n_samples=64, seed=3)
        other_seed = EnsembleRunner(spec(), catalog=recorder).run(
            n_samples=64, seed=4)
        other_n = EnsembleRunner(spec(), catalog=recorder).run(
            n_samples=32, seed=3)
        assert not getattr(other_seed, "served_from_catalog", False)
        assert not getattr(other_n, "served_from_catalog", False)
        assert run_catalog.count() == 3

    def test_spec_document_carries_the_path_taken(self, run_catalog,
                                                  recorder):
        """The address keeps the resolved ``"method"`` key, so draws
        catalogued when the path was a caller's choice are still served."""
        columnar = EnsembleRunner(spec(), catalog=recorder).run(
            n_samples=64, seed=3)
        per_sample = EnsembleRunner(
            spec(amortization="utilization-weighted"),
            {"pue": Normal(1.3, 0.05, low=1.0, high=1.6)},
            catalog=recorder).run(n_samples=4, seed=3)
        assert (columnar.method, per_sample.method) == ("vectorized", "oracle")
        assert sorted(run.spec["method"] for run in run_catalog.runs()) == \
            ["oracle", "vectorized"]

    def test_generator_seed_rejected(self, recorder):
        with pytest.raises(CatalogError, match="int seed"):
            EnsembleRunner(spec(), catalog=recorder).run(
                n_samples=8, seed=np.random.default_rng(0))


class TestTemporalEnsembleServing:
    def test_repeat_served_and_distinct_from_static(self, run_catalog):
        distributions = {"intensity_scale": Normal(1.0, 0.1)}
        live = TemporalEnsembleRunner(
            spec(), distributions,
            catalog=CatalogRecorder(run_catalog)).run(n_samples=16, seed=1)
        substrates = SubstrateCache()
        served = TemporalEnsembleRunner(
            spec(), distributions, substrates=substrates,
            catalog=CatalogRecorder(run_catalog)).run(n_samples=16, seed=1)
        assert substrates.snapshot_runs == 0
        assert served.served_from_catalog
        assert served.as_dict() == canonical(live.as_dict())
        # Recorded as kind "uncertainty" with the temporal-engine marker.
        record = run_catalog.runs()[0]
        assert record.kind == "uncertainty"
        assert record.spec["engine"] == "temporal"


class TestPortfolioServing:
    def test_repeat_served(self, run_catalog):
        pspec = PortfolioSpec.from_regions(["GB", "FR"], base_spec=spec())
        live = PortfolioRunner(
            pspec, catalog=CatalogRecorder(run_catalog)).run()
        substrates = SubstrateCache()
        served = PortfolioRunner(
            pspec, substrates=substrates,
            catalog=CatalogRecorder(run_catalog)).run()
        assert substrates.snapshot_runs == 0
        assert served.served_from_catalog
        assert served.as_dict() == canonical(live.as_dict())
        assert run_catalog.runs()[0].kind == "portfolio"


class TestBatchServing:
    def test_catalogued_sweep_is_served_without_preparation(self, run_catalog):
        BatchAssessmentRunner(
            spec(), catalog=CatalogRecorder(run_catalog)).sweep(
            pue=[1.1, 1.3], lifetime=[3.0, 5.0])
        assert run_catalog.count() == 4

        substrates = SubstrateCache()
        batch = BatchAssessmentRunner(
            spec(), substrates=substrates,
            catalog=CatalogRecorder(run_catalog)).sweep(
            pue=[1.1, 1.3], lifetime=[3.0, 5.0])
        assert substrates.snapshot_runs == 0
        assert all(result.served_from_catalog for result in batch)
        assert len(batch.totals_kg) == 4
        assert batch.as_rows()[0]["total_kg"] == batch[0].total_kg

    def test_partially_catalogued_sweep_simulates_only_fresh(self,
                                                             run_catalog):
        BatchAssessmentRunner(
            spec(), catalog=CatalogRecorder(run_catalog)).sweep(pue=[1.1])
        batch = BatchAssessmentRunner(
            spec(), catalog=CatalogRecorder(run_catalog)).sweep(
            pue=[1.1, 1.4])
        assert batch[0].served_from_catalog
        assert not getattr(batch[1], "served_from_catalog", False)
        assert run_catalog.count() == 2

    def test_temporal_sweep_serves(self, run_catalog):
        BatchAssessmentRunner(
            spec(), catalog=CatalogRecorder(run_catalog)).sweep_temporal(
            shift_hours=[0.0, 6.0])
        substrates = SubstrateCache()
        batch = BatchAssessmentRunner(
            spec(), substrates=substrates,
            catalog=CatalogRecorder(run_catalog)).sweep_temporal(
            shift_hours=[0.0, 6.0])
        assert substrates.snapshot_runs == 0
        assert all(result.served_from_catalog for result in batch)
        assert batch.as_rows()[1]["shift_hours"] == 6.0


class TestServedRunSurface:
    def test_summary_columns_are_attributes(self, run_catalog, recorder):
        Assessment.from_spec(spec(), catalog=recorder).run()
        served = Assessment.from_spec(spec(), catalog=recorder).run()
        assert served.active_kg + served.embodied_kg == pytest.approx(
            served.total_kg)
        with pytest.raises(AttributeError, match="recorded summary columns"):
            served.profile

    def test_repr_and_metadata(self, run_catalog, recorder):
        Assessment.from_spec(spec(), catalog=recorder).run()
        served = Assessment.from_spec(spec(), catalog=recorder).run()
        assert served.kind == "assess"
        assert served.run_id == served.record.run_id
        assert "ServedRun" in repr(served) or "assess" in repr(served)

    def test_to_json_round_trips(self, run_catalog, recorder, tmp_path):
        Assessment.from_spec(spec(), catalog=recorder).run()
        served = Assessment.from_spec(spec(), catalog=recorder).run()
        path = tmp_path / "served.json"
        served.to_json(path)
        assert json.loads(path.read_text()) == served.as_dict()


class _FakeResult:
    def __init__(self, payload):
        self._payload = payload

    def as_dict(self):
        return self._payload


def _forbidden():  # pragma: no cover - would mean serving failed
    raise AssertionError("compute() must not run on a catalog hit")
