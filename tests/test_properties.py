"""Property-based tests (hypothesis) for core invariants.

Each property pins an invariant the carbon model's correctness rests on:
unit round-trips, the linearity of equation 3, monotonicity of the power
model, conservation through resampling and measurement, and amortisation
summing back to the installed embodied carbon.  Strategies come from the
shared :mod:`strategies` module.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import positive_floats, small_positive, utilization

from repro.core.embodied import EmbodiedAsset, EmbodiedCarbonCalculator, LinearAmortization
from repro.core.active import ActiveCarbonCalculator, ActiveEnergyInput
from repro.power.calibration import fleet_utilization_for_target_power
from repro.power.facility import FacilityOverheadModel
from repro.timeseries.integrate import energy_kwh_from_power_w
from repro.timeseries.resample import resample_mean, resample_sum, upsample_repeat
from repro.timeseries.series import TimeSeries
from repro.units.quantities import Carbon, CarbonIntensity, Duration, Energy, Power

#: This file's historical range (kept: the unit layer is exercised at the
#: wider canonical range by test_properties_timeseries).
finite_positive = positive_floats(min_value=1e-6, max_value=1e9)


class TestUnitProperties:
    @given(kwh=finite_positive)
    def test_energy_round_trip(self, kwh):
        assert Energy.from_kwh(kwh).kwh == pytest.approx(kwh, rel=1e-12)
        assert Energy.from_joules(Energy.from_kwh(kwh).joules).kwh == pytest.approx(kwh, rel=1e-9)

    @given(kg=finite_positive)
    def test_carbon_round_trip(self, kg):
        assert Carbon.from_kg(kg).kg == pytest.approx(kg, rel=1e-12)
        assert Carbon.from_tonnes(Carbon.from_kg(kg).tonnes).kg == pytest.approx(kg, rel=1e-9)

    @given(watts=finite_positive, hours=small_positive)
    def test_power_times_time_is_energy(self, watts, hours):
        energy = Power(watts) * Duration.from_hours(hours)
        assert energy.wh == pytest.approx(watts * hours, rel=1e-9)

    @given(kwh=finite_positive, intensity=st.floats(min_value=0.0, max_value=2000.0))
    def test_equation3_linearity(self, kwh, intensity):
        """Ca = E x CM is linear in both arguments."""
        carbon = CarbonIntensity(intensity).carbon_for(Energy.from_kwh(kwh))
        doubled = CarbonIntensity(intensity).carbon_for(Energy.from_kwh(2 * kwh))
        assert doubled.g == pytest.approx(2 * carbon.g, rel=1e-9)
        assert carbon.g == pytest.approx(kwh * intensity, rel=1e-9)


class TestTimeSeriesProperties:
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                        min_size=1, max_size=200),
        factor=st.integers(min_value=1, max_value=10),
    )
    def test_resample_sum_conserves_total(self, values, factor):
        series = TimeSeries(0.0, 60.0, values)
        coarse = resample_sum(series, 60.0 * factor)
        assert coarse.total() == pytest.approx(series.total(), rel=1e-9, abs=1e-6)

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                        min_size=1, max_size=100),
        factor=st.integers(min_value=1, max_value=8),
    )
    def test_upsample_repeat_conserves_energy(self, values, factor):
        series = TimeSeries(0.0, 600.0, values)
        fine = upsample_repeat(series, 600.0 / factor)
        assert energy_kwh_from_power_w(fine) == pytest.approx(
            energy_kwh_from_power_w(series), rel=1e-9, abs=1e-9
        )

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                        min_size=4, max_size=200),
        factor=st.integers(min_value=1, max_value=10),
    )
    def test_resample_mean_preserves_energy_on_whole_blocks(self, values, factor):
        # Trim to whole blocks so the rectangle-rule energy is exactly preserved.
        n = (len(values) // factor) * factor
        if n == 0:
            return
        series = TimeSeries(0.0, 60.0, values[:n])
        coarse = resample_mean(series, 60.0 * factor)
        assert energy_kwh_from_power_w(coarse) == pytest.approx(
            energy_kwh_from_power_w(series), rel=1e-9, abs=1e-9
        )


class TestPowerModelProperties:
    @given(u1=utilization, u2=utilization)
    def test_monotonic(self, compute_power_model, u1, u2):
        lower, upper = sorted((u1, u2))
        assert float(compute_power_model.wall_power_w(lower)) <= float(
            compute_power_model.wall_power_w(upper)
        ) + 1e-9

    @given(u=utilization)
    def test_scope_nesting(self, compute_power_model, u):
        """RAPL <= DC <= wall for every utilisation."""
        rapl = float(compute_power_model.rapl_visible_power_w(u))
        dc = float(compute_power_model.dc_power_w(u))
        wall = float(compute_power_model.wall_power_w(u))
        assert rapl <= dc + 1e-9
        assert dc <= wall + 1e-9

    @given(target=st.floats(min_value=0.0, max_value=1500.0, allow_nan=False))
    @settings(max_examples=50)
    def test_calibration_inverts_power_model(self, compute_power_model, target):
        util = fleet_utilization_for_target_power([compute_power_model], target)
        assert 0.0 <= util <= 1.0
        achieved = float(compute_power_model.wall_power_w(util))
        clamped = min(max(target, compute_power_model.idle_wall_power_w),
                      compute_power_model.max_wall_power_w)
        assert achieved == pytest.approx(clamped, abs=0.5)


class TestCarbonModelProperties:
    @given(
        energies=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                          min_size=1, max_size=10),
        intensity=st.floats(min_value=0.0, max_value=1000.0),
        pue=st.floats(min_value=1.0, max_value=2.5),
    )
    def test_active_carbon_additive_and_pue_scaled(self, energies, intensity, pue):
        """Summing per-site energies then converting equals converting each
        site and summing (equation 2), and PUE scales the result linearly."""
        period = Duration.from_hours(24)
        calculator = ActiveCarbonCalculator(
            CarbonIntensity(intensity), overhead_model=FacilityOverheadModel(pue=pue)
        )
        node_energy = {f"s{i}": value for i, value in enumerate(energies)}
        combined = calculator.evaluate(
            ActiveEnergyInput(period=period, node_energy_kwh=node_energy)
        ).total_kg
        expected = sum(energies) * pue * intensity / 1000.0
        assert combined == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(
        embodied=st.floats(min_value=1.0, max_value=5000.0),
        lifetime=st.floats(min_value=0.5, max_value=15.0),
    )
    def test_amortisation_sums_to_installed_carbon(self, embodied, lifetime):
        """Charging every day of the lifetime recovers the full embodied carbon."""
        per_day = EmbodiedCarbonCalculator.per_server_per_day_kg(embodied, lifetime)
        assert per_day * lifetime * 365.0 == pytest.approx(embodied, rel=1e-9)

    @given(
        embodied=st.floats(min_value=1.0, max_value=5000.0),
        lifetime=st.floats(min_value=0.5, max_value=15.0),
        days=st.floats(min_value=0.01, max_value=10000.0),
    )
    def test_amortised_charge_never_exceeds_installed(self, embodied, lifetime, days):
        asset = EmbodiedAsset(asset_id="a", component="nodes",
                              embodied_kgco2=embodied, lifetime_years=lifetime)
        charged = LinearAmortization().period_kgco2(asset, Duration.from_days(days))
        assert charged <= embodied * (1.0 + 1e-9)
        assert charged >= 0.0

    @given(
        it_kwh=st.floats(min_value=0.0, max_value=1e6),
        intensity=st.floats(min_value=0.0, max_value=1000.0),
        pue=st.floats(min_value=1.0, max_value=2.0),
    )
    def test_facility_overhead_never_negative(self, it_kwh, intensity, pue):
        calculator = ActiveCarbonCalculator(
            CarbonIntensity(intensity), overhead_model=FacilityOverheadModel(pue=pue)
        )
        result = calculator.evaluate(
            ActiveEnergyInput(period=Duration.from_hours(24),
                              node_energy_kwh={"A": it_kwh})
        )
        assert result.total_kg >= result.it_only_kg - 1e-9
        assert all(value >= 0 for value in result.carbon_by_component_kg.values())
