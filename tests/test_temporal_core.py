"""Unit tests for the time-resolved engine core (repro.temporal)."""

import numpy as np
import pytest

from oracles.temporal import integrate_power_intensity_naive

from repro.grid.synthetic import SyntheticGridModel, uk_november_2022_intensity
from repro.temporal.align import ALIGNMENT_POLICIES, align_power_and_intensity
from repro.temporal.integrate import integrate_power_intensity
from repro.temporal.profile import TemporalEmissionsProfile
from repro.temporal.scenarios import defer_load, time_shift
from repro.timeseries.series import TimeSeries, TimeSeriesError
from repro.units.constants import JOULES_PER_KWH


def _random_pair(n=48, step=1800.0, seed=0):
    rng = np.random.default_rng(seed)
    power = TimeSeries(0.0, step, 500.0 + 400.0 * rng.random(n))
    intensity = TimeSeries(0.0, step, 30.0 + 300.0 * rng.random(n))
    return power, intensity


class TestIntegration:
    def test_vectorized_matches_naive_exactly(self):
        power, intensity = _random_pair(seed=3)
        fast = integrate_power_intensity(power, intensity, pue=1.3)
        slow = integrate_power_intensity_naive(power, intensity, pue=1.3)
        np.testing.assert_allclose(fast.energy_kwh, slow.energy_kwh, rtol=1e-12)
        np.testing.assert_allclose(fast.carbon_kg, slow.carbon_kg, rtol=1e-12)
        assert fast.total_carbon_kg == pytest.approx(slow.total_carbon_kg, rel=1e-12)

    def test_energy_matches_rectangle_rule(self):
        power, intensity = _random_pair(seed=4)
        profile = integrate_power_intensity(power, intensity)
        expected = float(power.values.sum()) * power.step / JOULES_PER_KWH
        assert profile.total_energy_kwh == pytest.approx(expected, rel=1e-12)

    def test_pue_scales_energy_and_carbon(self):
        power, intensity = _random_pair(seed=5)
        base = integrate_power_intensity(power, intensity, pue=1.0)
        scaled = integrate_power_intensity(power, intensity, pue=1.5)
        assert scaled.total_energy_kwh == pytest.approx(1.5 * base.total_energy_kwh)
        assert scaled.total_carbon_kg == pytest.approx(1.5 * base.total_carbon_kg)

    def test_constant_intensity_equals_mean_treatment(self):
        power, _ = _random_pair(seed=6)
        flat = TimeSeries.constant(0.0, power.step, 200.0, len(power))
        profile = integrate_power_intensity(power, flat)
        assert profile.total_carbon_kg == pytest.approx(
            profile.window_average_carbon_kg, rel=1e-12)
        assert profile.temporal_correction_kg == pytest.approx(0.0, abs=1e-9)

    def test_cumulative_is_monotone_for_nonnegative_power(self):
        power, intensity = _random_pair(seed=7)
        profile = integrate_power_intensity(power, intensity)
        assert (np.diff(profile.cumulative_carbon_kg) >= 0).all()
        assert profile.cumulative_carbon_kg[-1] == pytest.approx(
            profile.total_carbon_kg)

    def test_mismatched_grids_are_rejected(self):
        power, intensity = _random_pair()
        shifted = TimeSeries(900.0, intensity.step, intensity.values)
        with pytest.raises(TimeSeriesError, match="align them first"):
            integrate_power_intensity(power, shifted)
        short = TimeSeries(0.0, power.step, power.values[:-1])
        with pytest.raises(TimeSeriesError, match="align them first"):
            integrate_power_intensity(short, intensity)

    def test_invalid_pue_rejected(self):
        power, intensity = _random_pair()
        with pytest.raises(ValueError, match="pue"):
            integrate_power_intensity(power, intensity, pue=0.9)

    def test_experienced_intensity_is_energy_weighted(self):
        # All energy in the dirty half -> experienced intensity equals the
        # dirty value, not the window mean.
        power = TimeSeries(0.0, 3600.0, [0.0, 0.0, 1000.0, 1000.0])
        intensity = TimeSeries(0.0, 3600.0, [50.0, 50.0, 300.0, 300.0])
        profile = integrate_power_intensity(power, intensity)
        assert profile.experienced_intensity_g_per_kwh == pytest.approx(300.0)
        assert profile.mean_intensity_g_per_kwh == pytest.approx(175.0)


class TestProfile:
    def test_interval_rows_and_summary(self):
        power, intensity = _random_pair(n=4)
        profile = integrate_power_intensity(power, intensity)
        rows = profile.interval_rows()
        assert len(rows) == 4
        assert rows[-1]["cumulative_carbon_kg"] == pytest.approx(
            profile.total_carbon_kg)
        summary = profile.summary()
        assert summary["intervals"] == 4
        assert summary["carbon_kg"] == pytest.approx(profile.total_carbon_kg)

    def test_carbon_rate_series_units(self):
        # 1800 s intervals: rate in kg/h is carbon-per-interval times 2.
        power, intensity = _random_pair(n=8)
        profile = integrate_power_intensity(power, intensity)
        rate = profile.carbon_rate_series()
        np.testing.assert_allclose(rate.values, profile.carbon_kg * 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="same length"):
            TemporalEmissionsProfile(
                start=0.0, step=1.0, power_w=[1.0, 2.0],
                intensity_g_per_kwh=[1.0], energy_kwh=[1.0, 2.0],
                carbon_kg=[1.0, 2.0])
        with pytest.raises(ValueError, match="at least one"):
            TemporalEmissionsProfile(
                start=0.0, step=1.0, power_w=[], intensity_g_per_kwh=[],
                energy_kwh=[], carbon_kg=[])


class TestAlignment:
    def test_strict_accepts_shared_grid(self):
        power, intensity = _random_pair()
        a, b = align_power_and_intensity(power, intensity, policy="strict")
        assert a is power and b is intensity

    def test_strict_rejects_mismatch(self):
        power, intensity = _random_pair()
        other = TimeSeries(0.0, 900.0, np.repeat(intensity.values, 2))
        with pytest.raises(TimeSeriesError, match="strict alignment"):
            align_power_and_intensity(power, other, policy="strict")

    def test_resample_brings_fine_power_onto_coarse_intensity(self):
        rng = np.random.default_rng(1)
        power = TimeSeries(0.0, 60.0, 100.0 + rng.random(1440))
        intensity = TimeSeries(0.0, 1800.0, 100.0 + rng.random(48))
        a, b = align_power_and_intensity(power, intensity, policy="resample")
        assert a.step == b.step == 1800.0
        assert len(a) == len(b) == 48
        # Downsampling power by block means conserves energy.
        assert float(a.values.sum()) * 1800.0 == pytest.approx(
            float(power.values.sum()) * 60.0, rel=1e-12)

    def test_resample_explicit_resolution_upsamples_intensity(self):
        rng = np.random.default_rng(2)
        power = TimeSeries(0.0, 60.0, 100.0 + rng.random(1440))
        intensity = TimeSeries(0.0, 1800.0, 100.0 + rng.random(48))
        a, b = align_power_and_intensity(
            power, intensity, policy="resample", resolution_s=60.0)
        assert a.step == b.step == 60.0
        assert len(a) == len(b) == 1440
        # Intensity was repeated piecewise-constant.
        assert set(np.unique(b.values)) <= set(np.unique(intensity.values))

    def test_intersect_trims_to_common_window(self):
        power = TimeSeries(0.0, 1800.0, np.arange(48.0))
        intensity = TimeSeries(1800.0 * 4, 1800.0, np.arange(48.0))
        a, b = align_power_and_intensity(power, intensity, policy="intersect")
        assert a.start == b.start == 1800.0 * 4
        assert len(a) == len(b) == 44

    def test_unknown_policy_and_misused_resolution(self):
        power, intensity = _random_pair()
        with pytest.raises(ValueError, match="unknown alignment policy"):
            align_power_and_intensity(power, intensity, policy="fuzzy")
        with pytest.raises(ValueError, match="does not resample"):
            align_power_and_intensity(power, intensity, policy="strict",
                                      resolution_s=60.0)
        assert ALIGNMENT_POLICIES == ("strict", "resample", "intersect")


class TestScenarios:
    def test_time_shift_conserves_energy_and_rolls(self):
        power, _ = _random_pair(seed=11)
        shifted = time_shift(power, 6 * 3600.0)
        assert float(shifted.values.sum()) == pytest.approx(
            float(power.values.sum()), rel=1e-12)
        np.testing.assert_allclose(shifted.values,
                                   np.roll(power.values, 12))

    def test_time_shift_rejects_fractional_steps(self):
        power, _ = _random_pair()
        with pytest.raises(TimeSeriesError, match="integer number"):
            time_shift(power, 1234.0)

    def test_zero_and_full_cycle_shift_are_noops(self):
        power, _ = _random_pair()
        np.testing.assert_array_equal(time_shift(power, 0.0).values, power.values)
        np.testing.assert_array_equal(
            time_shift(power, power.duration).values, power.values)

    def test_defer_conserves_energy_and_never_increases_carbon(self):
        for seed in range(5):
            power, intensity = _random_pair(seed=seed)
            for fraction in (0.1, 0.5, 0.9):
                deferred = defer_load(power, intensity, fraction)
                assert float(deferred.values.sum()) == pytest.approx(
                    float(power.values.sum()), rel=1e-12)
                before = integrate_power_intensity(power, intensity)
                after = integrate_power_intensity(deferred, intensity)
                assert after.total_carbon_kg <= before.total_carbon_kg + 1e-12

    def test_defer_zero_fraction_is_noop(self):
        power, intensity = _random_pair()
        np.testing.assert_array_equal(
            defer_load(power, intensity, 0.0).values, power.values)

    def test_defer_flat_intensity_is_noop(self):
        power, _ = _random_pair()
        flat = TimeSeries.constant(0.0, power.step, 175.0, len(power))
        np.testing.assert_array_equal(
            defer_load(power, flat, 0.5).values, power.values)

    def test_defer_rejects_bad_fraction_and_grid(self):
        power, intensity = _random_pair()
        with pytest.raises(ValueError, match="defer_fraction"):
            defer_load(power, intensity, 1.0)
        short = TimeSeries(0.0, power.step, power.values[:-1])
        with pytest.raises(TimeSeriesError, match="same grid"):
            defer_load(short, intensity, 0.2)
        # Same shape but a different window is just as wrong.
        shifted = TimeSeries(86400.0, intensity.step, intensity.values)
        with pytest.raises(TimeSeriesError, match="same grid"):
            defer_load(power, shifted, 0.2)


class TestVectorizedSyntheticIntensity:
    def test_vectorized_path_matches_mix_loop(self):
        model = SyntheticGridModel()
        wind, solar, demand = model._window_conditions(7.0, 1800.0, 34, 0.0)
        vectorized = model.intensity_for_conditions(wind, solar, demand)
        looped = np.array([
            model.mix_for_conditions(
                float(wind[i]), float(solar[i]), float(demand[i])
            ).intensity_g_per_kwh()
            for i in range(len(wind))
        ])
        np.testing.assert_allclose(vectorized, looped, rtol=1e-12)

    def test_generate_intensity_still_matches_reference_values(self):
        series = uk_november_2022_intensity()
        refs = series.reference_values()
        assert 40.0 <= refs["low"].g_per_kwh <= 60.0
        assert 160.0 <= refs["medium"].g_per_kwh <= 190.0
        assert 280.0 <= refs["high"].g_per_kwh <= 320.0
