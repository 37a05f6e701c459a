"""Equation 4 in columns: ``==`` the per-asset loop in ``oracles.embodied``.

The calculator evaluates :class:`~repro.core.embodied.EmbodiedColumns`;
every result here must equal (``==``, same component key order) what the
per-asset loop returns for the same assets, and the snapshot's columns must
hold exactly the asset list the per-node loop builds.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.embodied import embodied_assets_loop, evaluate_loop

from repro.api import Assessment, BatchAssessmentRunner, SubstrateCache, default_spec
from repro.api.columnar import evaluate_assessment_group
from repro.api.registry import (
    AMORTIZATION_POLICIES,
    EMBODIED_ESTIMATORS,
    register_amortization_policy,
)
from repro.core.embodied import (
    AmortizationPolicy,
    CoreHoursAmortization,
    EmbodiedAsset,
    EmbodiedCarbonCalculator,
    EmbodiedColumns,
    LinearAmortization,
    MaskedColumn,
    UtilizationWeightedAmortization,
)
from repro.units.quantities import Duration, UnitError

POLICIES = (LinearAmortization, UtilizationWeightedAmortization, CoreHoursAmortization)
#: Lifetimes in years; 0.001 y is under 9 h, so a 24 h period clamps.
LIFETIMES = (3.0, 4.0, 5.0, 6.0, 7.0, 0.001)
OPTIONAL = ("period_utilization", "lifetime_utilization",
            "period_core_hours", "lifetime_core_hours")


class HalfLinear(AmortizationPolicy):
    """A user policy that defines only ``period_share``."""

    name = "half-linear"

    def period_share(self, asset, period):
        return 0.5 * LinearAmortization().period_share(asset, period)


def assert_same(result, expected):
    assert result == expected
    assert list(result.carbon_by_component_kg) == list(expected.carbon_by_component_kg)


def columns_from_rows(rows):
    """Columns built directly from field dicts, no EmbodiedAsset involved."""
    components = {}
    codes = [components.setdefault(row["component"], len(components)) for row in rows]
    return EmbodiedColumns(
        asset_ids=[row["asset_id"] for row in rows],
        component_codes=np.array(codes),
        components=tuple(components),
        embodied_kgco2=np.array([row["embodied_kgco2"] for row in rows]),
        lifetime_years=np.array([row["lifetime_years"] for row in rows]),
        **{name: MaskedColumn.from_optional([row.get(name) for row in rows])
           for name in OPTIONAL},
    )


optional_fraction = st.none() | st.floats(0.0, 1.0)
optional_hours = st.none() | st.just(0.0) | st.floats(0.0, 1e6)
assets_strategy = st.lists(
    st.builds(
        EmbodiedAsset,
        asset_id=st.text(min_size=1, max_size=4),
        component=st.sampled_from(("nodes", "network", "facility")),
        embodied_kgco2=st.just(0.0) | st.floats(0.0, 1e5),
        lifetime_years=st.floats(1e-4, 50.0),
        period_utilization=optional_fraction,
        lifetime_utilization=optional_fraction,
        period_core_hours=optional_hours,
        lifetime_core_hours=optional_hours,
    ),
    min_size=1, max_size=25,
)
#: Up to ten years: short lifetimes give shares above 1.
periods = st.floats(1.0, 3.2e8).map(Duration)


class TestStockPolicies:
    @pytest.mark.parametrize("policy_class", POLICIES)
    def test_hand_assets(self, policy_class):
        assets = [
            EmbodiedAsset("n1", "nodes", 400.0, 5.0, period_utilization=0.7,
                          lifetime_utilization=0.6),
            EmbodiedAsset("sw", "network", 1200.0, 6.0),
            EmbodiedAsset("n2", "nodes", 0.0, 3.0, period_core_hours=24.0,
                          lifetime_core_hours=0.0),
            EmbodiedAsset("n3", "nodes", 900.0, 0.001, period_utilization=1.0,
                          lifetime_utilization=0.0, period_core_hours=48.0,
                          lifetime_core_hours=1e5),
            EmbodiedAsset("hall", "facility", 5e5, 20.0),
        ]
        policy = policy_class()
        day = Duration.from_days(1)
        expected = evaluate_loop(policy, assets, day)
        calculator = EmbodiedCarbonCalculator(policy)
        assert_same(calculator.evaluate(assets, day), expected)
        assert_same(calculator.evaluate(EmbodiedColumns.from_assets(assets), day), expected)

    @settings(max_examples=150, deadline=None)
    @given(assets=assets_strategy, period=periods,
           policy_class=st.sampled_from(POLICIES))
    def test_drawn_assets(self, assets, period, policy_class):
        policy = policy_class()
        expected = evaluate_loop(policy, assets, period)
        calculator = EmbodiedCarbonCalculator(policy)
        assert_same(calculator.evaluate(assets, period), expected)
        assert_same(calculator.evaluate(EmbodiedColumns.from_assets(assets), period),
                    expected)

    def test_nan_core_hours_are_data_not_missing(self):
        assets = [
            EmbodiedAsset("a", "nodes", 1.0, 5.0, period_core_hours=math.nan,
                          lifetime_core_hours=10.0),
            EmbodiedAsset("b", "nodes", 1.0, 5.0, period_core_hours=None,
                          lifetime_core_hours=10.0),
            EmbodiedAsset("c", "nodes", 1.0, 5.0, period_core_hours=0.0,
                          lifetime_core_hours=math.nan),
        ]
        policy = CoreHoursAmortization()
        day = Duration.from_days(1)
        shares = policy.period_shares(EmbodiedColumns.from_assets(assets), day)
        np.testing.assert_array_equal(
            shares, [policy.period_share(asset, day) for asset in assets])
        assert math.isnan(shares[0])

    def test_nan_lifetime_raises_the_duration_error(self):
        assets = [EmbodiedAsset("a", "nodes", 1.0, math.nan)]
        day = Duration.from_days(1)
        with pytest.raises(UnitError) as expected:
            evaluate_loop(LinearAmortization(), assets, day)
        with pytest.raises(UnitError, match=re.escape(str(expected.value))):
            EmbodiedCarbonCalculator().evaluate(assets, day)


class TestCustomPolicy:
    @settings(max_examples=50, deadline=None)
    @given(assets=assets_strategy, period=periods)
    def test_period_share_only_policy(self, assets, period):
        expected = evaluate_loop(HalfLinear(), assets, period)
        calculator = EmbodiedCarbonCalculator(HalfLinear())
        assert_same(calculator.evaluate(assets, period), expected)
        assert_same(calculator.evaluate(EmbodiedColumns.from_assets(assets), period),
                    expected)

    def test_negative_share_raises(self):
        class Negative(AmortizationPolicy):
            name = "negative"

            def period_share(self, asset, period):
                return -0.1

        assets = [EmbodiedAsset("a", "nodes", 1.0, 5.0)]
        day = Duration.from_days(1)
        with pytest.raises(ValueError) as expected:
            evaluate_loop(Negative(), assets, day)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            EmbodiedCarbonCalculator(Negative()).evaluate(assets, day)

    def test_registered_policy_runs_through_an_assessment(self):
        register_amortization_policy("test-half-linear", HalfLinear)
        try:
            cache = SubstrateCache()
            spec = default_spec(node_scale=0.05).replace(amortization="test-half-linear")
            result = Assessment(spec, substrates=cache).run()
            snapshot = cache.snapshot(spec)
            expected = evaluate_loop(
                HalfLinear(), embodied_assets_loop(snapshot, None, spec.lifetime_years),
                snapshot.period())
            assert_same(result.total.embodied, expected)
        finally:
            AMORTIZATION_POLICIES.unregister("test-half-linear")


@pytest.fixture(scope="module")
def full_scale():
    cache = SubstrateCache()
    spec = default_spec(node_scale=1.0)
    return cache, spec, cache.snapshot(spec)


class TestFullScale:
    @pytest.mark.parametrize("per_server", [None, 750.0])
    @pytest.mark.parametrize("estimator", ["catalog", "bottom-up"])
    def test_all_sites_match_the_loops(self, full_scale, estimator, per_server):
        cache, base, snapshot = full_scale
        assert len(snapshot.site_results) == 6
        resolver = None
        if per_server is None and estimator != "catalog":
            figures = EMBODIED_ESTIMATORS.create(estimator)
            resolver = lambda model: float(  # noqa: E731
                figures.node_total_kgco2(cache.catalog().node(model)))
        period = snapshot.period()
        for lifetime in LIFETIMES:
            reference = embodied_assets_loop(snapshot, per_server, lifetime, resolver)
            columns = snapshot.embodied_columns(per_server, lifetime, resolver)
            assert columns.assets() == reference
            for policy_class in POLICIES:
                policy = policy_class()
                assert_same(EmbodiedCarbonCalculator(policy).evaluate(columns, period),
                            evaluate_loop(policy, reference, period))
        spec = base.replace(embodied_estimator=estimator, per_server_kgco2=per_server)
        result = Assessment(spec, substrates=cache).run()
        assert_same(result.total.embodied, evaluate_loop(
            LinearAmortization(),
            embodied_assets_loop(snapshot, per_server, spec.lifetime_years, resolver),
            period))


class TestColumns:
    def test_snapshot_round_trip(self, mini_snapshot_result):
        columns = mini_snapshot_result.embodied_columns(lifetime_years=4.0)
        again = EmbodiedColumns.from_assets(columns.assets())
        assert again.asset_ids == columns.asset_ids
        assert again.components == columns.components
        np.testing.assert_array_equal(again.component_codes, columns.component_codes)
        np.testing.assert_array_equal(again.embodied_kgco2, columns.embodied_kgco2)
        np.testing.assert_array_equal(again.lifetime_years, columns.lifetime_years)
        for name in OPTIONAL:
            assert again.masked(name).tolist() == columns.masked(name).tolist()
        assert again.assets() == columns.assets()

    @settings(max_examples=50, deadline=None)
    @given(assets=assets_strategy)
    def test_drawn_round_trip(self, assets):
        assert EmbodiedColumns.from_assets(assets).assets() == assets

    def test_snapshot_assets_are_the_loop_list(self, mini_snapshot_result):
        assert (mini_snapshot_result.embodied_assets(per_server_kgco2=400.0, lifetime_years=3.0)
                == embodied_assets_loop(mini_snapshot_result, 400.0, 3.0))


VALID = dict(asset_id="x", component="nodes", embodied_kgco2=1.0, lifetime_years=5.0)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(asset_id=""),
        dict(component=""),
        dict(embodied_kgco2=-1.0),
        dict(lifetime_years=0.0),
        dict(lifetime_years=-0.0),
        dict(period_utilization=1.5),
        dict(period_utilization=math.nan),
        dict(lifetime_utilization=-0.1),
        dict(period_core_hours=-1.0),
        dict(lifetime_core_hours=-2.0),
        dict(asset_id="", lifetime_years=0.0, period_core_hours=-1.0),
    ])
    def test_messages_match_the_asset(self, bad):
        row = {**VALID, **bad}
        with pytest.raises(ValueError) as expected:
            EmbodiedAsset(**row)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            columns_from_rows([VALID, row, VALID])

    def test_first_invalid_asset_decides_the_message(self):
        rows = [VALID, {**VALID, "lifetime_years": 0.0}, {**VALID, "asset_id": ""}]
        with pytest.raises(ValueError, match="lifetime_years must be positive"):
            columns_from_rows(rows)

    def test_nan_is_not_an_error_where_the_asset_allows_it(self):
        row = {**VALID, "embodied_kgco2": math.nan, "period_core_hours": math.nan}
        EmbodiedAsset(**row)
        columns_from_rows([row])

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="one entry per asset"):
            EmbodiedColumns(asset_ids=("a", "b"), component_codes=[0, 0],
                            components=("nodes",), embodied_kgco2=[1.0],
                            lifetime_years=[1.0, 1.0])
        with pytest.raises(ValueError, match="component_codes must index components"):
            EmbodiedColumns(asset_ids=("a",), component_codes=[1],
                            components=("nodes",), embodied_kgco2=[1.0],
                            lifetime_years=[1.0])

    def test_empty_columns_are_rejected_by_the_calculator(self):
        empty = EmbodiedColumns(asset_ids=(), component_codes=[], components=(),
                                embodied_kgco2=[], lifetime_years=[])
        with pytest.raises(ValueError, match="at least one asset"):
            EmbodiedCarbonCalculator().evaluate(empty, Duration.from_days(1))


class TestWarmPath:
    def test_warm_calls_build_no_assets(self, monkeypatch):
        cache = SubstrateCache()
        spec = default_spec(node_scale=0.05)
        Assessment(spec, substrates=cache).run()
        built = []
        check = EmbodiedAsset.__post_init__

        def counting(self):
            built.append(self.asset_id)
            check(self)

        monkeypatch.setattr(EmbodiedAsset, "__post_init__", counting)
        Assessment(spec.replace(pue=1.4), substrates=cache).run()
        Assessment(spec.replace(embodied_estimator="bottom-up"), substrates=cache).run()
        BatchAssessmentRunner(spec, substrates=cache).sweep(
            pue=[1.1, 1.2], lifetime=[4.0, 5.0])
        assert built == []
        snapshot = cache.snapshot(spec)
        assets = snapshot.embodied_assets()
        assert len(built) == len(assets)
        assert assets == embodied_assets_loop(snapshot)

    def test_template_stays_out_of_equality(self, mini_snapshot_result):
        from repro.snapshot.experiment import SnapshotResult

        fresh = SnapshotResult(config=mini_snapshot_result.config,
                               site_results=mini_snapshot_result.site_results)
        mini_snapshot_result.embodied_columns()
        assert "_embodied" in vars(mini_snapshot_result)
        assert "_embodied" not in vars(fresh)
        assert fresh == mini_snapshot_result


class TestAssessmentGroup:
    def test_group_equals_run_live_per_spec(self):
        cache = SubstrateCache()
        base = default_spec(node_scale=0.05)
        specs = [
            base.replace(pue=pue, lifetime_years=lifetime, per_server_kgco2=per_server,
                         carbon_intensity_g_per_kwh=intensity)
            for pue in (1.1, 1.5)
            for lifetime in (0.001, 4.0)
            for per_server in (None, 650.0)
            for intensity in (None, 120.0)
        ]
        group = evaluate_assessment_group(specs, cache)
        for spec, result in zip(specs, group):
            live = Assessment(spec, substrates=cache).run_live()
            assert result == live
            assert result.as_dict() == live.as_dict()
            assert_same(result.total.embodied, live.total.embodied)
