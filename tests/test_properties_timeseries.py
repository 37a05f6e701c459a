"""Property-based tests: quantity arithmetic and timeseries invariants.

Complements ``test_properties.py`` with the invariants the time-resolved
engine leans on: the quantity classes agree with plain arithmetic, series
time grids are strictly monotone, resampling conserves energy
(amount-like) or the mean (rate-like), alignment preserves the sample grid,
and the temporal scenario transforms conserve energy while never increasing
carbon.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (
    factors,
    finite_positive,
    intensity_values,
    series_values,
    steps,
)

from repro.temporal.integrate import integrate_power_intensity
from repro.temporal.scenarios import defer_load, time_shift
from repro.timeseries.align import align_many, common_window
from repro.timeseries.integrate import energy_kwh_from_power_w
from repro.timeseries.resample import resample_mean, resample_sum, upsample_repeat
from repro.timeseries.series import TimeSeries
from repro.units.quantities import CarbonIntensity, Duration, Energy, Power


class TestConversionRoundTrips:
    @given(kwh=finite_positive, g_per_kwh=st.floats(min_value=0.0, max_value=2000.0,
                                                    allow_nan=False))
    def test_quantity_and_scalar_paths_agree(self, kwh, g_per_kwh):
        quantity_kg = CarbonIntensity(g_per_kwh).carbon_for(Energy.from_kwh(kwh)).kg
        scalar_kg = kwh * g_per_kwh / 1000.0
        assert quantity_kg == pytest.approx(scalar_kg, rel=1e-12)

    @given(watts=finite_positive, hours=st.floats(min_value=1e-6, max_value=1e5,
                                                  allow_nan=False))
    def test_power_times_duration_round_trip(self, watts, hours):
        energy = Power.from_watts(watts) * Duration.from_hours(hours)
        assert energy.kwh == pytest.approx(watts * hours / 1000.0, rel=1e-9)


class TestTimeSeriesInvariants:
    @given(values=series_values, step=steps,
           start=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_times_strictly_monotone_and_consistent(self, values, step, start):
        series = TimeSeries(start, step, values)
        times = series.times
        assert (np.diff(times) > 0).all()
        assert times[0] == pytest.approx(start)
        assert series.end == pytest.approx(times[-1] + step)
        assert series.duration == pytest.approx(step * len(values))

    @given(values=series_values, step=steps, factor=factors)
    def test_resample_sum_conserves_amounts(self, values, step, factor):
        series = TimeSeries(0.0, step, values)
        coarse = resample_sum(series, step * factor)
        assert coarse.total() == pytest.approx(series.total(), rel=1e-9, abs=1e-9)

    @given(values=series_values, step=steps, factor=factors)
    def test_resample_mean_conserves_energy_of_whole_blocks(self, values, step, factor):
        # Trim to whole blocks: block means weighted by the coarse step
        # carry exactly the energy of the fine samples they replace.
        series = TimeSeries(0.0, step, values)
        n_whole = (len(series) // factor) * factor
        if n_whole == 0:
            return
        trimmed = TimeSeries(0.0, step, series.values[:n_whole])
        coarse = resample_mean(trimmed, step * factor)
        assert energy_kwh_from_power_w(coarse) == pytest.approx(
            energy_kwh_from_power_w(trimmed), rel=1e-9, abs=1e-12)

    @given(values=series_values, step=steps, factor=factors)
    def test_upsample_then_downsample_is_identity(self, values, step, factor):
        series = TimeSeries(0.0, step, values)
        fine = upsample_repeat(series, step / factor)
        assert len(fine) == len(series) * factor
        back = resample_mean(fine, step)
        np.testing.assert_allclose(back.values, series.values, rtol=1e-9)
        # Piecewise-constant repetition also conserves energy exactly.
        assert energy_kwh_from_power_w(fine) == pytest.approx(
            energy_kwh_from_power_w(series), rel=1e-9, abs=1e-12)

    @given(values=series_values, step=steps,
           offsets=st.lists(st.integers(min_value=0, max_value=5),
                            min_size=2, max_size=4))
    def test_align_many_shares_grid_inside_common_window(self, values, step, offsets):
        base = TimeSeries(0.0, step, values)
        group = [TimeSeries(offset * step, step, values) for offset in offsets]
        group.append(base)
        if max(offset * step for offset in offsets) >= base.end:
            return  # no overlap: align_many correctly refuses, tested elsewhere
        aligned = align_many(group)
        start, end = common_window(group)
        for series in aligned:
            assert series.start == pytest.approx(start)
            assert len(series) == len(aligned[0])
            assert series.end <= end + 1e-9


class TestTemporalScenarioProperties:
    @given(values=series_values, shift_steps=st.integers(min_value=-48, max_value=48))
    def test_time_shift_conserves_energy(self, values, shift_steps):
        power = TimeSeries(0.0, 1800.0, values)
        shifted = time_shift(power, shift_steps * 1800.0)
        assert float(shifted.values.sum()) == pytest.approx(
            float(power.values.sum()), rel=1e-9, abs=1e-9)
        assert sorted(shifted.values.tolist()) == pytest.approx(
            sorted(power.values.tolist()))

    @settings(max_examples=50)
    @given(data=st.data(), fraction=st.floats(min_value=0.0, max_value=0.99,
                                              allow_nan=False))
    def test_defer_conserves_energy_and_never_increases_carbon(self, data, fraction):
        intensity_list = data.draw(intensity_values)
        power_list = data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                     min_size=len(intensity_list), max_size=len(intensity_list)))
        power = TimeSeries(0.0, 1800.0, power_list)
        intensity = TimeSeries(0.0, 1800.0, intensity_list)
        deferred = defer_load(power, intensity, fraction)
        assert float(deferred.values.sum()) == pytest.approx(
            float(power.values.sum()), rel=1e-9, abs=1e-6)
        before = integrate_power_intensity(power, intensity)
        after = integrate_power_intensity(deferred, intensity)
        assert after.total_carbon_kg <= before.total_carbon_kg * (1 + 1e-12) + 1e-9
