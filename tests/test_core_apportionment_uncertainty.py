"""Tests for shared-resource apportionment and the closed-form Monte Carlo."""

import numpy as np
import pytest

from repro.core.apportionment import ApportionmentBasis, ShareApportionment
from repro.core.uncertainty import (
    UncertainInput,
    closed_form_draws,
    summarise_closed_form,
)


class TestShareApportionment:
    def test_fully_assigned_matches_paper_assumption(self):
        share = ShareApportionment.fully_assigned()
        assert share.fraction == 1.0
        assert share.apportion(123.0) == 123.0

    def test_by_capacity(self):
        share = ShareApportionment.by_capacity(dri_amount=256.0, total_amount=1024.0)
        assert share.fraction == pytest.approx(0.25)
        assert share.apportion(1000.0) == pytest.approx(250.0)
        assert share.basis is ApportionmentBasis.CAPACITY

    def test_by_usage(self):
        share = ShareApportionment.by_usage(dri_amount=30.0, total_amount=90.0)
        assert share.fraction == pytest.approx(1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShareApportionment(basis=ApportionmentBasis.FIXED)
        with pytest.raises(ValueError):
            ShareApportionment(basis=ApportionmentBasis.FIXED, fixed_fraction=1.5)
        with pytest.raises(ValueError):
            ShareApportionment.by_capacity(10.0, 0.0)
        with pytest.raises(ValueError):
            ShareApportionment.by_capacity(20.0, 10.0)
        with pytest.raises(ValueError):
            ShareApportionment.fully_assigned().apportion(-1.0)


class TestUncertainInput:
    def test_defaults_match_paper_scenarios(self):
        inputs = UncertainInput()
        assert inputs.intensity_low == 50.0
        assert inputs.intensity_high == 300.0
        assert inputs.pue_mode == 1.3
        assert inputs.embodied_low_kg == 400.0
        assert inputs.embodied_high_kg == 1100.0
        assert inputs.lifetimes_years == (3.0, 4.0, 5.0, 6.0, 7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UncertainInput(intensity_low=200.0, intensity_mode=100.0)
        with pytest.raises(ValueError):
            UncertainInput(pue_low=0.9)
        with pytest.raises(ValueError):
            UncertainInput(embodied_low_kg=1200.0, embodied_high_kg=1100.0)
        with pytest.raises(ValueError):
            UncertainInput(lifetimes_years=())


def _draws(n_samples, seed, inputs=None):
    """The paper-mode ensemble: 18,760 kWh over 2,398 servers for a day."""
    return closed_form_draws(inputs or UncertainInput(), 18760.0, 2398, 1.0,
                             n_samples, seed)


def _run(n_samples, seed, inputs=None):
    return summarise_closed_form(_draws(n_samples, seed, inputs))


class TestMonteCarloCarbonModel:
    """The closed-form ensemble ``repro uncertainty`` runs in paper mode."""

    def test_deterministic_for_seed(self):
        a = _draws(2000, seed=1)
        b = _draws(2000, seed=1)
        for key in a:
            assert (a[key] == b[key]).all()
        assert _run(2000, 1).total_kg_mean == _run(2000, 1).total_kg_mean

    def test_distribution_within_scenario_corners(self):
        result = _run(5000, seed=2)
        # The scenario corners from Tables 3 and 4 must bracket the
        # Monte-Carlo percentiles.
        corner_low = 938.0 * 1.1 + 375.0
        corner_high = 5628.0 * 1.5 + 2409.0
        assert corner_low < result.total_kg_p5
        assert result.total_kg_p95 < corner_high
        assert result.total_kg_p5 < result.total_kg_p50 < result.total_kg_p95

    def test_active_dominates_on_average(self):
        """The paper's headline conclusion: embodied is the smaller share."""
        result = _run(5000, seed=3)
        assert result.embodied_fraction_mean < 0.5
        assert result.probability_embodied_exceeds_active < 0.5
        assert result.active_kg_mean > result.embodied_kg_mean

    def test_zero_carbon_grid_flips_the_balance(self):
        """With a fully decarbonised grid, embodied carbon dominates —
        the future the paper's summary anticipates."""
        inputs = UncertainInput(intensity_low=0.0, intensity_mode=5.0, intensity_high=15.0)
        result = _run(3000, seed=4, inputs=inputs)
        assert result.probability_embodied_exceeds_active > 0.5

    def test_samples_structure(self):
        draws = _draws(100, seed=5)
        assert set(draws) >= {"active_kg", "embodied_kg", "total_kg", "intensity", "pue"}
        assert len(draws["total_kg"]) == 100
        assert (draws["total_kg"] >= draws["active_kg"]).all()

    def test_as_dict(self):
        summary = _run(500, seed=6).as_dict()
        assert summary["samples"] == 500
        assert summary["total_kg_mean"] > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            _draws(0, seed=0)


class TestDeprecationShim:
    """The closed form that outlived the deprecated Monte-Carlo shim draws
    from the registry distributions and the shared sampler; pin
    bit-equivalence with the historical implementation."""

    @staticmethod
    def _historical_draws(inputs: UncertainInput, it_energy_kwh: float,
                          server_count: int, period_days: float,
                          n_samples: int, seed: int) -> dict:
        """The pre-subsystem implementation, inlined verbatim."""
        rng = np.random.default_rng(seed)
        p = inputs
        intensity = rng.triangular(p.intensity_low, p.intensity_mode,
                                   p.intensity_high, size=n_samples)
        pue = rng.triangular(p.pue_low, p.pue_mode, p.pue_high, size=n_samples)
        embodied_per_server = rng.uniform(p.embodied_low_kg, p.embodied_high_kg,
                                          size=n_samples)
        lifetimes = rng.choice(np.asarray(p.lifetimes_years, dtype=np.float64),
                               size=n_samples)
        active_kg = it_energy_kwh * pue * intensity / 1000.0
        embodied_kg = (embodied_per_server / (lifetimes * 365.0)
                       * server_count * period_days)
        return {"active_kg": active_kg, "embodied_kg": embodied_kg,
                "total_kg": active_kg + embodied_kg}

    def test_bit_equivalent_quantiles_at_paper_defaults(self):
        """Same seed, same stream, same arithmetic: the quantiles equal the
        historical implementation's bit for bit."""
        result = _run(10_000, seed=0)
        expected = self._historical_draws(
            UncertainInput(), 18760.0, 2398, 1.0, 10_000, 0)
        total = expected["total_kg"]
        assert result.total_kg_p5 == float(np.percentile(total, 5))
        assert result.total_kg_p50 == float(np.percentile(total, 50))
        assert result.total_kg_p95 == float(np.percentile(total, 95))
        assert result.total_kg_mean == float(total.mean())
        assert result.active_kg_mean == float(expected["active_kg"].mean())
        assert result.embodied_kg_mean == float(expected["embodied_kg"].mean())

    def test_sample_columns_bit_equivalent(self):
        draws = _draws(2048, seed=31)
        expected = self._historical_draws(
            UncertainInput(), 18760.0, 2398, 1.0, 2048, 31)
        for key in ("active_kg", "embodied_kg", "total_kg"):
            assert (draws[key] == expected[key]).all()
