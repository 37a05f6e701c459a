"""Tests for the declarative assessment spec."""

import json
import math

import pytest

from repro.api import AssessmentSpec, default_spec
from repro.api.persistence import snapshot_digest
from repro.api.registry import INVENTORY_SOURCES
from repro.catalog.store import spec_digest


class TestValidation:
    def test_defaults_are_valid(self):
        spec = AssessmentSpec()
        assert spec.inventory == "iris"
        assert spec.node_scale == 1.0
        assert spec.carbon_intensity_g_per_kwh == 175.0
        assert spec.pue == 1.3

    @pytest.mark.parametrize("changes", [
        {"node_scale": 0.0},
        {"node_scale": 1.5},
        {"duration_hours": 0.0},
        {"trace_step_s": -1.0},
        {"pue": 0.9},
        {"carbon_intensity_g_per_kwh": -5.0},
        {"per_server_kgco2": 0.0},
        {"lifetime_years": 0.0},
        {"inventory": ""},
        {"grid": ""},
        {"embodied_estimator": ""},
        {"amortization": ""},
        {"node_scale": True},
        {"pue": "1.3"},
        {"shift_hours": None},
        {"campaign_seed": 1234.5},
        {"campaign_seed": True},
        {"campaign_seed": "1234"},
    ])
    def test_invalid_values_rejected(self, changes):
        with pytest.raises(ValueError):
            default_spec(**changes)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "node_scale", "duration_hours", "trace_step_s",
        "carbon_intensity_g_per_kwh", "pue", "per_server_kgco2",
        "lifetime_years", "temporal_resolution_s", "shift_hours",
        "defer_fraction",
    ])
    def test_non_finite_numbers_rejected(self, field, value):
        """No range check catches NaN, and ``inf`` passes most of them."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AssessmentSpec.from_dict({field: value})

    def test_json_non_finite_literals_rejected(self):
        for text in ('{"pue": NaN}', '{"lifetime_years": Infinity}',
                     '{"duration_hours": 1' + "0" * 400 + '}'):
            with pytest.raises(ValueError, match="must be finite"):
                AssessmentSpec.from_dict(json.loads(text))

    def test_replace_validates(self):
        spec = default_spec(node_scale=0.1)
        with pytest.raises(ValueError):
            spec.replace(pue=0.5)
        assert spec.replace(pue=1.1).pue == 1.1
        # replace returns a new object; the original is untouched.
        assert spec.pue == 1.3


class TestPhysicalKey:
    def test_scenario_fields_do_not_change_the_key(self):
        base = default_spec(node_scale=0.1)
        assert base.physical_key() == base.replace(
            pue=1.5, carbon_intensity_g_per_kwh=50.0, lifetime_years=7.0,
            per_server_kgco2=400.0, amortization="utilization-weighted",
        ).physical_key()

    def test_physical_fields_change_the_key(self):
        base = default_spec(node_scale=0.1)
        assert base.physical_key() != base.replace(node_scale=0.2).physical_key()
        assert base.physical_key() != base.replace(campaign_seed=9).physical_key()
        assert base.physical_key() != base.replace(duration_hours=12.0).physical_key()


class TestRoundTrip:
    def test_equal_specs_have_one_address(self):
        """``1`` and ``1.0`` give one document, one catalog address and one
        persisted snapshot, not two."""
        ints = AssessmentSpec.from_dict({
            "node_scale": 1, "pue": 2, "temporal_resolution_s": 1800,
            "campaign_seed": 1234.0})
        floats = AssessmentSpec.from_dict({
            "node_scale": 1.0, "pue": 2.0, "temporal_resolution_s": 1800.0,
            "campaign_seed": 1234})
        assert ints == floats
        assert (type(ints.node_scale), type(ints.campaign_seed)) == (float, int)
        assert spec_digest("assess", ints.to_dict()) == \
            spec_digest("assess", floats.to_dict())
        factory = INVENTORY_SOURCES.get("iris")
        assert snapshot_digest(ints.physical_key(), factory) == \
            snapshot_digest(floats.physical_key(), factory)

    def test_dict_round_trip(self):
        spec = default_spec(node_scale=0.25, pue=1.42, per_server_kgco2=800.0,
                            amortization="core-hours")
        assert AssessmentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self, tmp_path):
        spec = default_spec(node_scale=0.5, carbon_intensity_g_per_kwh=None,
                            grid="synthetic-gb")
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert AssessmentSpec.from_json(path) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError) as err:
            AssessmentSpec.from_dict({"node_scale": 0.5, "wibble": 1})
        assert "wibble" in str(err.value)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            AssessmentSpec.from_json(path)

    def test_values_survive_invalid_round_trip_guard(self, tmp_path):
        # A spec edited on disk into an invalid state fails on load, loudly.
        path = tmp_path / "spec.json"
        default_spec(node_scale=0.5).to_json(path)
        text = path.read_text().replace('"pue": 1.3', '"pue": 0.2')
        path.write_text(text)
        with pytest.raises(ValueError):
            AssessmentSpec.from_json(path)
