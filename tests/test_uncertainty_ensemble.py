"""Tests for UncertainSpec and the static ensemble engine."""

import json

import numpy as np
import pytest

from repro.api import BatchAssessmentRunner, SubstrateCache, default_spec
from repro.uncertainty import (
    Discrete,
    EnsembleRunner,
    Normal,
    Triangular,
    UncertainSpec,
    Uniform,
    draw_samples,
)

SCALE = 0.02

PAPER_ENVELOPE = {
    "carbon_intensity_g_per_kwh": Triangular(50.0, 175.0, 300.0),
    "pue": Triangular(1.1, 1.3, 1.5),
    "per_server_kgco2": Uniform(400.0, 1100.0),
    "lifetime_years": Discrete((3.0, 4.0, 5.0, 6.0, 7.0)),
}


@pytest.fixture(scope="module")
def substrates():
    """One substrate cache for the whole module (one small simulation)."""
    return SubstrateCache()


@pytest.fixture(scope="module")
def runner(substrates):
    return EnsembleRunner(default_spec(node_scale=SCALE), PAPER_ENVELOPE,
                          substrates=substrates)


class TestUncertainSpec:
    def test_flat_document_round_trip(self, tmp_path):
        # Non-default point values on distributed fields must survive the
        # round trip (they are the sensitivity baselines).
        spec = UncertainSpec(base=default_spec(node_scale=SCALE, pue=1.8),
                             distributions=PAPER_ENVELOPE)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        # The file is one flat document: scalar fields plus tagged objects
        # carrying the base point value under "baseline".
        data = json.loads(path.read_text())
        assert data["node_scale"] == SCALE
        assert data["pue"]["dist"] == "triangular"
        assert data["pue"]["baseline"] == 1.8
        rebuilt = UncertainSpec.from_json(path)
        assert rebuilt.base == spec.base
        assert rebuilt.base.pue == 1.8
        assert rebuilt.baseline_value("pue") == 1.8
        assert rebuilt.distributions == spec.distributions
        assert rebuilt.fields == spec.fields

    def test_unknown_scalar_field_rejected(self):
        with pytest.raises(ValueError, match="unknown AssessmentSpec"):
            UncertainSpec.from_dict({"nonsense": 1.0,
                                     "pue": {"dist": "uniform",
                                             "low": 1.1, "high": 1.5}})

    def test_distribution_on_non_samplable_field_rejected(self):
        with pytest.raises(ValueError, match="cannot carry a distribution"):
            UncertainSpec.from_dict(
                {"inventory": {"dist": "uniform", "low": 0.0, "high": 1.0}})

    def test_scalar_on_uncertainty_only_field_rejected(self):
        with pytest.raises(ValueError, match="uncertainty-only"):
            UncertainSpec.from_dict({"intensity_scale": 1.1})

    def test_needs_at_least_one_distribution(self):
        with pytest.raises(ValueError, match="at least one distribution"):
            UncertainSpec.from_dict({"node_scale": 0.5})

    def test_baseline_values(self):
        spec = UncertainSpec(base=default_spec(),
                             distributions={"pue": PAPER_ENVELOPE["pue"]})
        assert spec.baseline_value("pue") == 1.3
        assert spec.baseline_value("intensity_scale") == 1.0
        with pytest.raises(ValueError, match="no baseline"):
            spec.baseline_value("per_server_kgco2")


class TestEnsembleRunner:
    def test_vectorized_matches_oracle_quantiles(self, runner):
        vectorized = runner.run(n_samples=512, seed=5)
        assert vectorized.method == "vectorized"
        active, embodied = runner._evaluate_oracle(runner.draw(512, 5))
        oracle = {"active_kg": active, "embodied_kg": embodied,
                  "total_kg": active + embodied}
        for metric in ("active_kg", "embodied_kg", "total_kg"):
            expected = np.quantile(oracle[metric],
                                   [0.05, 0.25, 0.5, 0.75, 0.95])
            actual = np.quantile(vectorized.metric(metric),
                                 [0.05, 0.25, 0.5, 0.75, 0.95])
            assert actual == pytest.approx(expected, rel=1e-9)

    def test_substrate_simulated_once(self):
        cache = SubstrateCache()
        fresh = EnsembleRunner(default_spec(node_scale=SCALE), PAPER_ENVELOPE,
                               substrates=cache)
        fresh.run(n_samples=64, seed=0)
        fresh.run(n_samples=64, seed=1)
        fresh._evaluate_oracle(fresh.draw(32, 2))
        assert cache.snapshot_runs == 1

    def test_vectorized_validates_sample_domains(self, substrates):
        bad = EnsembleRunner(default_spec(node_scale=SCALE),
                             {"pue": Normal(1.0, 0.5)},  # can sample pue < 1
                             substrates=substrates)
        with pytest.raises(ValueError, match="truncate the distribution"):
            bad.run(n_samples=64, seed=0)

    def test_same_seed_bit_identical(self, runner):
        a = runner.run(n_samples=256, seed=9)
        b = runner.run(n_samples=256, seed=9)
        assert (a.total_kg == b.total_kg).all()
        assert (a.samples.column("pue") == b.samples.column("pue")).all()

    def test_different_seeds_differ(self, runner):
        a = runner.run(n_samples=256, seed=1)
        b = runner.run(n_samples=256, seed=2)
        assert not np.array_equal(a.total_kg, b.total_kg)

    def test_auto_uses_vectorized_for_analysis_fields(self, runner):
        assert runner.vectorizable()
        assert runner.run(n_samples=32, seed=0).method == "vectorized"

    def test_physical_field_falls_back_to_oracle(self, substrates):
        runner = EnsembleRunner(
            default_spec(node_scale=SCALE),
            {"node_scale": Discrete((SCALE, 2 * SCALE)),
             "pue": PAPER_ENVELOPE["pue"]},
            substrates=substrates)
        assert not runner.vectorizable()
        before_keys = substrates.snapshot_runs + substrates.snapshot_hits
        result = runner.run(n_samples=24, seed=0)
        assert result.method == "oracle"
        # Each *distinct* sampled scale costs (at most) one simulation; the
        # cache absorbs the rest.
        assert substrates.snapshot_runs <= 3
        assert substrates.snapshot_runs + substrates.snapshot_hits > before_keys

    def test_non_linear_amortization_falls_back_to_oracle(self, substrates):
        runner = EnsembleRunner(
            default_spec(node_scale=SCALE, amortization="utilization-weighted"),
            {"pue": PAPER_ENVELOPE["pue"]},
            substrates=substrates)
        assert not runner.vectorizable()
        result = runner.run(n_samples=16, seed=0)
        assert result.method == "oracle"

    def test_temporal_fields_rejected(self):
        with pytest.raises(ValueError, match="time-resolved"):
            EnsembleRunner(default_spec(node_scale=SCALE),
                           {"shift_hours": Discrete((0.0, 6.0))})

    def test_out_of_domain_sample_reported(self, substrates):
        runner = EnsembleRunner(
            default_spec(node_scale=SCALE, amortization="utilization-weighted"),
            {"pue": Normal(1.0, 0.5)},  # unclipped: can sample pue < 1
            substrates=substrates)
        with pytest.raises(ValueError, match="truncate the distribution"):
            runner.run(n_samples=64, seed=0)

    def test_draw_order_is_canonical(self):
        # Sorted-by-name order: a mapping built in any insertion order (or
        # reloaded from a sorted-keys JSON file) draws the same stream.
        forward = draw_samples(PAPER_ENVELOPE, 64, seed=3)
        reordered = draw_samples(
            dict(reversed(list(PAPER_ENVELOPE.items()))), 64, seed=3)
        assert forward.fields == reordered.fields == tuple(sorted(PAPER_ENVELOPE))
        assert (forward.column("pue") == reordered.column("pue")).all()


class TestEnsembleResult:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return runner.run(n_samples=1024, seed=13)

    def test_quantiles_monotone_and_labelled(self, result):
        quantiles = result.quantiles("total_kg")
        assert list(quantiles) == ["p05", "p25", "p50", "p75", "p95"]
        values = list(quantiles.values())
        assert values == sorted(values)

    def test_crossover_and_exceedance(self, result):
        p = result.probability_embodied_exceeds_active
        assert 0.0 <= p <= 1.0
        median = result.quantile(0.5)
        exceed = result.exceedance_probability(median)
        assert exceed == pytest.approx(0.5, abs=0.05)

    def test_embodied_fraction_in_unit_interval(self, result):
        fraction = result.metric("embodied_fraction")
        assert (fraction > 0.0).all() and (fraction < 1.0).all()

    def test_serialisation_round_trip(self, result, tmp_path):
        json_path = tmp_path / "ensemble.json"
        result.to_json(json_path)
        data = json.loads(json_path.read_text())
        assert data["summary"]["samples"] == 1024
        assert data["quantiles"]["total_kg"]["p50"] == pytest.approx(
            result.quantile(0.5), rel=1e-12)
        assert data["spec"]["pue"]["dist"] == "triangular"

        csv_path = tmp_path / "ensemble.csv"
        result.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 5  # header + default quantile rows
        assert lines[0].startswith("quantile,probability,active_kg")

    def test_unknown_metric_rejected(self, result):
        with pytest.raises(KeyError, match="unknown metric"):
            result.metric("joy")


class TestSensitivity:
    def test_intensity_dominates_paper_envelope(self, runner):
        rows = runner.sensitivity(n_samples=1024, seed=3)
        assert [row["field"] for row in rows][0] == "carbon_intensity_g_per_kwh"
        shares = [row["variance_share"] for row in rows]
        assert sum(shares) == pytest.approx(1.0, rel=1e-9)
        assert shares == sorted(shares, reverse=True)
        for row in rows:
            assert row["swing_kg"] >= 0.0


class TestBatchIntegration:
    def test_batch_runner_ensemble_shares_substrates(self, substrates):
        batch_runner = BatchAssessmentRunner(default_spec(node_scale=SCALE),
                                             substrates=substrates)
        result = batch_runner.ensemble(PAPER_ENVELOPE, n_samples=128, seed=0)
        assert result.n_samples == 128
        assert result.method == "vectorized"

    def test_batch_runner_ensemble_defaults_to_paper_envelope(self, substrates):
        batch_runner = BatchAssessmentRunner(default_spec(node_scale=SCALE),
                                             substrates=substrates)
        result = batch_runner.ensemble(n_samples=64, seed=0)
        assert set(result.fields) == set(PAPER_ENVELOPE)
