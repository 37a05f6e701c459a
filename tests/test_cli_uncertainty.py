"""CLI tests for the ``repro uncertainty`` ensemble subcommand."""

import csv
import json

import pytest

from repro.cli import main

SCALE_ARGS = ["--scale", "0.02", "--samples", "200", "--seed", "3"]


class TestPaperMode:
    def test_default_runs_closed_form(self, capsys):
        assert main(["uncertainty", "--samples", "1000"]) == 0
        out = capsys.readouterr().out
        assert "paper's input ranges" in out
        assert "total_kg_mean" in out

    def test_explicit_energy_and_servers(self, capsys):
        assert main(["uncertainty", "--samples", "500",
                     "--energy-kwh", "1000", "--servers", "100"]) == 0
        assert "total_kg_mean" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["uncertainty", "--samples", "500",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["samples"] == 500
        assert data["total_kg_p5"] < data["total_kg_p95"]

    def test_paper_mode_is_seed_deterministic(self, capsys):
        assert main(["uncertainty", "--samples", "500", "--seed", "4",
                     "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["uncertainty", "--samples", "500", "--seed", "4",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_invalid_inputs(self, capsys):
        assert main(["uncertainty", "--samples", "0"]) == 2
        assert main(["uncertainty", "--servers", "0"]) == 2

    def test_paper_and_spec_modes_conflict(self, capsys):
        assert main(["uncertainty", "--energy-kwh", "100",
                     "--scale", "0.02"]) == 2
        assert "conflict" in capsys.readouterr().err

    def test_ensemble_only_flags_rejected_in_paper_mode(self, capsys):
        # Flags that only make sense for the simulated ensemble must error
        # loudly rather than being silently dropped.
        assert main(["uncertainty", "--sensitivity"]) == 2
        assert "--sensitivity" in capsys.readouterr().err
        assert main(["uncertainty", "--histogram"]) == 2
        assert "--histogram" in capsys.readouterr().err


class TestSpecMode:
    def test_scale_runs_default_envelope(self, capsys):
        assert main(["uncertainty"] + SCALE_ARGS) == 0
        out = capsys.readouterr().out
        assert "Outcome quantiles" in out
        assert "vectorized" in out

    def test_spec_file_with_distributions(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "node_scale": 0.02,
            "pue": {"dist": "triangular", "low": 1.1, "mode": 1.3,
                    "high": 1.5},
        }), encoding="utf-8")
        assert main(["uncertainty", "--spec", str(path),
                     "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "Ensemble over pue" in out

    def test_plain_spec_file_gets_default_envelope(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"node_scale": 0.02}), encoding="utf-8")
        assert main(["uncertainty", "--spec", str(path),
                     "--samples", "100"]) == 0
        assert "per_server_kgco2" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["uncertainty", "--format", "json"] + SCALE_ARGS) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["samples"] == 200
        quantiles = data["quantiles"]["total_kg"]
        assert quantiles["p05"] < quantiles["p50"] < quantiles["p95"]

    def test_csv_format(self, capsys):
        assert main(["uncertainty", "--format", "csv"] + SCALE_ARGS) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 5
        assert rows[0]["quantile"] == "p05"

    def test_csv_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "quantiles.csv"
        assert main(["uncertainty", "--format", "csv",
                     "--output", str(out_path)] + SCALE_ARGS) == 0
        with out_path.open(newline="", encoding="utf-8") as handle:
            assert len(list(csv.DictReader(handle))) == 5

    def test_sensitivity_table(self, capsys):
        assert main(["uncertainty", "--sensitivity"] + SCALE_ARGS) == 0
        out = capsys.readouterr().out
        assert "Sensitivity" in out
        assert "variance_share" in out

    @pytest.mark.parametrize("mode", [[], SCALE_ARGS, ["--temporal"]])
    def test_removed_method_flag_is_a_usage_error(self, mode, capsys):
        """The ensemble picks its own path; ``--method`` is gone in every
        mode, not silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["uncertainty", "--method", "oracle", *mode])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nonsense": 1}), encoding="utf-8")
        assert main(["uncertainty", "--spec", str(path)]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_bad_distribution_in_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "pue": {"dist": "nope", "low": 1.0}}), encoding="utf-8")
        assert main(["uncertainty", "--spec", str(path)]) == 2


class TestTemporalMode:
    def test_temporal_bands(self, capsys):
        assert main(["uncertainty", "--temporal"] + SCALE_ARGS) == 0
        out = capsys.readouterr().out
        assert "Temporal ensemble" in out
        assert "Emission bands over time" in out

    def test_temporal_csv(self, capsys):
        assert main(["uncertainty", "--temporal", "--format", "csv"]
                    + SCALE_ARGS) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) > 0
        assert "p50_kg" in rows[0]

    def test_temporal_rejects_static_only_flags(self, capsys):
        assert main(["uncertainty", "--temporal", "--sensitivity"]
                    + SCALE_ARGS) == 2
        assert "static ensemble" in capsys.readouterr().err
        assert main(["uncertainty", "--temporal", "--histogram"]
                    + SCALE_ARGS) == 2
        assert "--histogram" in capsys.readouterr().err

    def test_temporal_default_envelope_uses_grid_trace(self, capsys):
        """The bare --temporal default derives intensity from the grid
        trace, so the timing-error axis actually spreads the totals."""
        assert main(["uncertainty", "--temporal", "--format", "json"]
                    + SCALE_ARGS) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spec"]["carbon_intensity_g_per_kwh"] is None
        assert "intensity_shift_hours" in data["summary"]["fields"]
        assert data["summary"]["active_kg_std"] > 0.0

    def test_temporal_fixed_intensity_spec_drops_shift_axis(self, tmp_path,
                                                            capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"node_scale": 0.02}), encoding="utf-8")
        assert main(["uncertainty", "--temporal", "--spec", str(path),
                     "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "intensity_scale" in out
        assert "intensity_shift_hours" not in out

    def test_temporal_rejects_static_only_distribution(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "node_scale": 0.02,
            "lifetime_years": {"dist": "discrete", "values": [3, 5]},
        }), encoding="utf-8")
        assert main(["uncertainty", "--temporal", "--spec", str(path),
                     "--samples", "50"]) == 2
        assert "do not shape emission" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_flags_require_values(flag):
    with pytest.raises(SystemExit):
        main(["uncertainty", flag])
