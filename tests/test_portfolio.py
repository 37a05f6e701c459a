"""Tests for the multi-site portfolio engine.

Spec validation and JSON round-trips, federated execution over one shared
substrate (identical physical specs across sites simulate exactly once),
marginal-placement analysis, the region × load-split sweep, the scaled
inventory variants the portfolio composes members from, and the N-way
trace alignment the carbon-aware ranking relies on.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from strategies import portfolio_specs, site_snapshot_configs

from repro.api import (
    Assessment,
    BatchAssessmentRunner,
    INVENTORY_SOURCES,
    SubstrateCache,
    default_spec,
    register_iris_variant,
)
from repro.portfolio import (
    PortfolioMember,
    PortfolioRunner,
    PortfolioSpec,
    region_grid_name,
)
from repro.snapshot.config import SnapshotConfig, build_iris_snapshot_config
from repro.temporal.align import align_many_resampled
from repro.timeseries.series import TimeSeries, TimeSeriesError

SCALE = 0.02


@pytest.fixture(scope="module")
def substrates():
    """One private cache for the whole module (simulations are shared)."""
    return SubstrateCache()


@pytest.fixture(scope="module")
def three_region_result(substrates):
    """A GB/FR/PL portfolio over one shared physical configuration."""
    spec = PortfolioSpec.from_regions(
        ["GB", "FR", "PL"], base_spec=default_spec(node_scale=SCALE),
        load_shares=[0.5, 0.3, 0.2], name="three-region")
    return PortfolioRunner(spec, substrates=substrates).run()


class TestPortfolioSpec:
    def test_member_validation(self):
        with pytest.raises(ValueError, match="name"):
            PortfolioMember(name="")
        with pytest.raises(ValueError, match="load_share"):
            PortfolioMember(name="a", load_share=1.5)
        with pytest.raises(TypeError, match="AssessmentSpec"):
            PortfolioMember(name="a", spec={"node_scale": 0.5})

    def test_needs_members_and_unique_names(self):
        with pytest.raises(ValueError, match="at least one member"):
            PortfolioSpec(members=())
        with pytest.raises(ValueError, match="duplicated: a"):
            PortfolioSpec(members=(
                PortfolioMember(name="a", load_share=0.5),
                PortfolioMember(name="a", load_share=0.5)))

    def test_load_shares_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PortfolioSpec(members=(
                PortfolioMember(name="a", load_share=0.5),
                PortfolioMember(name="b", load_share=0.4)))

    def test_region_binding_overrides_grid(self):
        member = PortfolioMember(name="fr", region="FR",
                                 spec=default_spec(node_scale=SCALE))
        effective = member.effective_spec()
        assert effective.grid == region_grid_name("FR") == "region-FR"
        assert effective.carbon_intensity_g_per_kwh is None
        # Without a region the spec's own binding is kept untouched.
        bare = PortfolioMember(name="gb", spec=default_spec(node_scale=SCALE))
        assert bare.effective_spec() is bare.spec

    def test_from_regions_uniform_default_and_validation(self):
        spec = PortfolioSpec.from_regions(["GB", "FR"])
        assert [m.load_share for m in spec.members] == [0.5, 0.5]
        assert spec.member_names == ["GB", "FR"]
        with pytest.raises(ValueError, match="at least one region"):
            PortfolioSpec.from_regions([])
        with pytest.raises(ValueError, match="unique"):
            PortfolioSpec.from_regions(["GB", "GB"])
        with pytest.raises(ValueError, match="2 entries for 3 regions"):
            PortfolioSpec.from_regions(["GB", "FR", "PL"],
                                       load_shares=[0.5, 0.5])

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="warp"):
            PortfolioSpec.from_dict({"members": [], "warp": 9})
        with pytest.raises(ValueError, match="warp"):
            PortfolioMember.from_dict({"name": "a", "warp": 9})

    def test_json_round_trip(self, tmp_path):
        spec = PortfolioSpec.from_regions(
            ["GB", "FR", "PL"], base_spec=default_spec(node_scale=SCALE),
            load_shares=[0.5, 0.3, 0.2], name="estate")
        path = tmp_path / "portfolio.json"
        spec.to_json(path)
        assert PortfolioSpec.from_json(path) == spec
        # The document is the advertised flat shape.
        data = json.loads(path.read_text())
        assert data["name"] == "estate"
        assert data["members"][0]["region"] == "GB"
        assert data["members"][0]["spec"]["node_scale"] == SCALE

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=portfolio_specs())
    def test_dict_round_trip_property(self, spec):
        assert PortfolioSpec.from_dict(spec.to_dict()) == spec

    def test_member_lookup(self):
        spec = PortfolioSpec.from_regions(["GB", "FR"])
        assert spec.member("FR").region == "FR"
        with pytest.raises(KeyError, match="atlantis"):
            spec.member("atlantis")


class TestPortfolioRunner:
    def test_shared_physical_config_simulates_exactly_once(
            self, substrates, three_region_result):
        # Three member sites, one physical configuration: the whole
        # portfolio (plus everything else this module ran against the
        # shared cache at the same scale) costs one engine run.
        assert substrates.snapshot_runs == 1
        assert len(three_region_result) == 3

    def test_rollup_conserves_site_totals(self, three_region_result):
        result = three_region_result
        assert result.total_kg == pytest.approx(
            sum(m.total_kg for m in result.members), rel=1e-12)
        assert result.active_kg + result.embodied_kg == pytest.approx(
            result.total_kg, rel=1e-12)
        assert result.energy_kwh == pytest.approx(
            sum(m.energy_kwh for m in result.members), rel=1e-12)

    def test_placement_view_weights_active_by_share(self, three_region_result):
        result = three_region_result
        expected = sum(m.load_share * m.active_kg for m in result.members)
        assert result.placed_active_kg == pytest.approx(expected, rel=1e-12)
        assert result.placed_total_kg == pytest.approx(
            expected + result.embodied_kg, rel=1e-12)

    def test_best_site_prefers_clean_region(self, three_region_result):
        # France's nuclear-dominated grid beats GB and coal-heavy Poland
        # under both accounting modes.
        assert three_region_result.best_site_for(1000.0).name == "FR"
        assert three_region_result.best_site_for(
            1000.0, carbon_aware=True).name == "FR"

    def test_carbon_aware_marginal_never_above_snapshot(
            self, three_region_result):
        # The clean-hour quantile of a trace cannot exceed its mean-based
        # snapshot intensity.
        for member in three_region_result.members:
            assert (member.clean_marginal_intensity_g_per_kwh
                    <= member.marginal_intensity_g_per_kwh + 1e-9)

    def test_fixed_intensity_member_keeps_it_for_both_modes(self, substrates):
        spec = PortfolioSpec(members=(
            PortfolioMember(name="pinned",
                            spec=default_spec(node_scale=SCALE,
                                              carbon_intensity_g_per_kwh=100.0),
                            load_share=0.5),
            PortfolioMember(name="traced", region="NO", load_share=0.5,
                            spec=default_spec(node_scale=SCALE))))
        result = PortfolioRunner(spec, substrates=substrates).run()
        pinned = result.member("pinned")
        assert pinned.marginal_intensity_g_per_kwh == 100.0
        assert pinned.clean_marginal_intensity_g_per_kwh == 100.0
        traced = result.member("traced")
        assert (traced.clean_marginal_intensity_g_per_kwh
                < traced.marginal_intensity_g_per_kwh)

    def test_placement_rows_ranked_ascending(self, three_region_result):
        for carbon_aware in (False, True):
            rows = three_region_result.placement_rows(
                500.0, carbon_aware=carbon_aware)
            added = [row["added_kg"] for row in rows]
            assert added == sorted(added)
            assert [row["rank"] for row in rows] == [1, 2, 3]

    def test_concurrent_and_serial_runs_agree_exactly(self, substrates):
        spec = PortfolioSpec.from_regions(
            ["GB", "FR", "PL", "NO"], base_spec=default_spec(node_scale=SCALE))
        serial = PortfolioRunner(spec, substrates=substrates,
                                 max_workers=1).run()
        concurrent = PortfolioRunner(spec, substrates=SubstrateCache(),
                                     max_workers=4).run()
        for left, right in zip(serial.members, concurrent.members):
            assert left.total_kg == right.total_kg  # bit-identical

    def test_unknown_region_fails_before_simulating(self, substrates):
        runs_before = substrates.snapshot_runs
        spec = PortfolioSpec(members=(
            PortfolioMember(name="x", region="ATLANTIS", load_share=1.0,
                            spec=default_spec(node_scale=0.011)),))
        with pytest.raises(KeyError, match="region-ATLANTIS"):
            PortfolioRunner(spec, substrates=substrates).run()
        assert substrates.snapshot_runs == runs_before

    def test_constructor_validation(self):
        with pytest.raises(TypeError, match="PortfolioSpec"):
            PortfolioRunner(default_spec())
        spec = PortfolioSpec.from_regions(["GB"])
        with pytest.raises(ValueError, match="max_workers"):
            PortfolioRunner(spec, max_workers=0)
        with pytest.raises(ValueError, match="not both"):
            PortfolioRunner(spec, substrates=SubstrateCache(),
                            substrate_cache_dir="substrates")

    def test_result_serialisation(self, three_region_result, tmp_path):
        result = three_region_result
        json_path = tmp_path / "portfolio.json"
        result.to_json(json_path)
        data = json.loads(json_path.read_text())
        assert data["summary"]["best_site"] == "FR"
        assert len(data["sites"]) == 3
        assert data["placement"]["snapshot"][0]["rank"] == 1
        csv_path = tmp_path / "portfolio.csv"
        result.to_csv(csv_path)
        assert csv_path.read_text().startswith("member,")


class TestSweepPortfolio:
    def test_region_by_split_grid_reuses_one_substrate(self):
        runner = BatchAssessmentRunner(default_spec(node_scale=SCALE),
                                       substrates=SubstrateCache())
        batch = runner.sweep_portfolio(
            region=["GB", "FR"],
            load_split=[(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)])
        assert len(batch) == 3
        assert runner.substrates.snapshot_runs == 1
        # Placing everything on the cleaner grid wins.
        assert [m.load_share for m in batch.best().members] == [0.0, 1.0]
        placed = batch.placed_totals_kg
        assert placed[0] > placed[1] > placed[2]
        # Rollups are placement-independent: same sites, same totals.
        assert batch[0].total_kg == pytest.approx(batch[2].total_kg, rel=1e-12)

    def test_default_split_is_uniform(self):
        runner = BatchAssessmentRunner(default_spec(node_scale=SCALE),
                                       substrates=SubstrateCache())
        batch = runner.sweep_portfolio(region=["GB", "FR"])
        assert len(batch) == 1
        assert [m.load_share for m in batch[0].members] == [0.5, 0.5]

    def test_sweep_rows_carry_the_split(self):
        runner = BatchAssessmentRunner(default_spec(node_scale=SCALE),
                                       substrates=SubstrateCache())
        batch = runner.sweep_portfolio(region=["GB", "FR"],
                                       load_split=[(0.25, 0.75)])
        rows = batch.as_rows()
        assert rows[0]["load_split"] == "0.25/0.75"
        assert rows[0]["sites"] == 2

    def test_validation(self):
        runner = BatchAssessmentRunner(default_spec(node_scale=SCALE),
                                       substrates=SubstrateCache())
        with pytest.raises(ValueError, match="at least one region"):
            runner.sweep_portfolio(region=[])
        with pytest.raises(ValueError, match="at least one split"):
            runner.sweep_portfolio(region=["GB"], load_split=[])
        with pytest.raises(ValueError, match="entries for"):
            runner.sweep_portfolio(region=["GB", "FR"],
                                   load_split=[(1.0,)])


class TestScaledInventoryVariants:
    def test_site_subset_config_matches_full_campaign_site(self):
        full = build_iris_snapshot_config(node_scale=SCALE)
        subset = build_iris_snapshot_config(node_scale=SCALE, sites=("DUR",))
        assert subset.site_names == ["DUR"]
        assert subset.site_config("DUR") == full.site_config("DUR")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="ATLANTIS"):
            build_iris_snapshot_config(sites=("ATLANTIS",))
        with pytest.raises(ValueError, match="at least one"):
            build_iris_snapshot_config(sites=())

    def test_registered_variant_drives_assessments(self):
        register_iris_variant("iris-durham-test", sites=("DUR",),
                              node_scale_factor=0.5)
        try:
            cache = SubstrateCache()
            result = Assessment.from_spec(
                default_spec(node_scale=0.1, inventory="iris-durham-test"),
                substrates=cache).run()
            expected = build_iris_snapshot_config(node_scale=0.05,
                                                  sites=("DUR",))
            assert result.snapshot.total_nodes == sum(
                site.node_count for site in expected.sites)
            assert [row["site"] for row in result.table2_rows()] == ["DUR"]
        finally:
            INVENTORY_SOURCES.unregister("iris-durham-test")

    def test_variant_factor_validated(self):
        with pytest.raises(ValueError, match="node_scale_factor"):
            register_iris_variant("iris-bad-test", node_scale_factor=0.0)

    @settings(max_examples=20, deadline=None)
    @given(site=site_snapshot_configs(site="A"),
           other=site_snapshot_configs(site="B"))
    def test_config_composition_conserves_node_counts(self, site, other):
        config = SnapshotConfig(sites=(site, other))
        assert config.site_names == ["A", "B"]
        for entry in config.sites:
            assert (entry.compute_node_count + entry.storage_node_count
                    == entry.node_count)


class TestAlignManyResampled:
    def test_mixed_steps_land_on_coarsest_grid(self):
        fine = TimeSeries(0.0, 900.0, np.arange(8, dtype=float))
        coarse = TimeSeries(0.0, 1800.0, np.array([10.0, 20.0, 30.0, 40.0]))
        aligned = align_many_resampled([fine, coarse])
        assert all(series.step == 1800.0 for series in aligned)
        assert len(aligned[0]) == len(aligned[1])
        # Downsampling a rate averages whole blocks.
        np.testing.assert_allclose(aligned[0].values, [0.5, 2.5, 4.5, 6.5])

    def test_explicit_resolution_and_window_trim(self):
        a = TimeSeries(0.0, 1800.0, np.ones(8))
        b = TimeSeries(3600.0, 1800.0, 2.0 * np.ones(8))
        aligned = align_many_resampled([a, b], resolution_s=3600.0)
        assert all(series.step == 3600.0 for series in aligned)
        assert aligned[0].start == aligned[1].start == 3600.0

    def test_rejects_empty_and_bad_resolution(self):
        with pytest.raises(TimeSeriesError, match="at least one"):
            align_many_resampled([])
        with pytest.raises(ValueError, match="positive"):
            align_many_resampled([TimeSeries(0.0, 60.0, [1.0])],
                                 resolution_s=0.0)
