"""The fleet calibration against the seed per-node loop.

``fleet_utilization_for_target_power`` evaluates each distinct node model
once per bisection step; the seed loop (``oracles.calibration``) evaluated
every node.  The contract is bit identity (``==``) for every fleet and
target, clamps included, at a model-call cost bounded by the number of
distinct models rather than the number of nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.calibration import fleet_utilization_loop

from repro.inventory.catalog import default_catalog
from repro.power.calibration import (
    FLEET_BISECTION_STEPS,
    fleet_utilization_for_target_power,
)
from repro.power.node_power import NodePowerModel
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment

#: Model evaluations per distinct model: both clamp checks plus every step.
CALLS_PER_MODEL = FLEET_BISECTION_STEPS + 2


@pytest.fixture(scope="module")
def iris_sites():
    """(experiment, site, specs) for every full-scale IRIS site."""
    experiment = SnapshotExperiment(build_iris_snapshot_config())
    return [(experiment, site, experiment._site_specs(site)[1])
            for site in experiment.config.sites]


@pytest.fixture
def wall_power_calls(monkeypatch):
    """Count every ``NodePowerModel.wall_power_w`` call made in the test."""
    calls = []
    original = NodePowerModel.wall_power_w

    def counting(self, utilization):
        calls.append(self)
        return original(self, utilization)

    monkeypatch.setattr(NodePowerModel, "wall_power_w", counting)
    return calls


class TestIrisSites:
    def test_bit_identical_at_every_site(self, iris_sites):
        assert len(iris_sites) == 6
        for experiment, site, specs in iris_sites:
            models = [NodePowerModel(spec) for spec in specs]
            target = site.target_node_power_w * site.calibration_margin
            expected = fleet_utilization_loop(models, target)
            assert 0.0 < expected < 1.0, site.site
            assert fleet_utilization_for_target_power(models, target) == expected
            assert experiment._site_target_utilization(
                site, experiment._site_models(specs)) == expected

    def test_model_calls_bounded_by_distinct_models(self, iris_sites,
                                                    wall_power_calls):
        for experiment, site, specs in iris_sites:
            wall_power_calls.clear()
            experiment._site_target_utilization(
                site, experiment._site_models(specs))
            distinct = len(set(specs))
            assert 0 < len(wall_power_calls) <= distinct * CALLS_PER_MODEL, (
                site.site, len(specs), len(wall_power_calls))
            # One model object per node: equal objects still count once.
            wall_power_calls.clear()
            fleet_utilization_for_target_power(
                [NodePowerModel(spec) for spec in specs],
                site.target_node_power_w * site.calibration_margin)
            assert 0 < len(wall_power_calls) <= distinct * CALLS_PER_MODEL, (
                site.site, len(specs), len(wall_power_calls))


@st.composite
def mixed_fleets(draw, max_models=4, max_nodes_per_model=12):
    """Shuffled fleets of a few distinct node power models."""
    catalog = default_catalog()
    specs = [catalog.node(model) for model in catalog.node_models]
    distinct = [
        NodePowerModel(
            draw(st.sampled_from(specs)),
            cpu_idle_fraction=draw(st.floats(0.0, 0.9)),
            dram_idle_fraction=draw(st.floats(0.0, 1.0)),
        )
        for _ in range(draw(st.integers(1, max_models)))
    ]
    fleet = [model for model in distinct
             for _ in range(draw(st.integers(1, max_nodes_per_model)))]
    order = draw(st.permutations(range(len(fleet))))
    return [fleet[i] for i in order]


def _fleet_mean(models, utilization):
    return float(np.mean([m.wall_power_w(utilization) for m in models]))


class TestMixedFleets:
    @given(fleet=mixed_fleets(),
           position=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                              st.floats(-0.25, 1.25)))
    @settings(max_examples=150, deadline=None)
    def test_identical_to_per_node_loop(self, fleet, position):
        """Targets below idle, at idle, inside, at and above full load."""
        idle, full = _fleet_mean(fleet, 0.0), _fleet_mean(fleet, 1.0)
        target = idle + position * (full - idle)
        assert (fleet_utilization_for_target_power(fleet, target)
                == fleet_utilization_loop(fleet, target))

    @given(fleet=mixed_fleets())
    @settings(max_examples=40, deadline=None)
    def test_clamps(self, fleet):
        idle, full = _fleet_mean(fleet, 0.0), _fleet_mean(fleet, 1.0)
        for target, expected in ((0.0, 0.0), (idle, 0.0),
                                 (full, 1.0), (2.0 * full, 1.0)):
            assert fleet_utilization_for_target_power(fleet, target) == expected
            assert fleet_utilization_loop(fleet, target) == expected

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            fleet_utilization_for_target_power([], 100.0)
