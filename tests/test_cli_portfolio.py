"""Tests for the ``repro portfolio`` subcommand.

Happy paths for every format plus the error paths, mirroring the existing
``repro assess`` error-path tests: missing spec files, malformed
documents, unknown regions, load shares that do not sum to one and bad
``--format`` values all produce a one-line error and exit code 2 — never
a stack trace, and never after paying for a simulation.
"""

import json

import pytest

from repro.api import default_spec
from repro.cli import main
from repro.portfolio import PortfolioSpec


@pytest.fixture()
def spec_path(tmp_path):
    """A valid 3-region portfolio spec file at tiny scale."""
    path = tmp_path / "portfolio.json"
    PortfolioSpec.from_regions(
        ["GB", "FR", "PL"], base_spec=default_spec(node_scale=0.02),
        load_shares=[0.5, 0.3, 0.2], name="cli-test").to_json(path)
    return path


class TestPortfolioCommand:
    def test_table_output(self, capsys, spec_path):
        assert main(["portfolio", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "per-site assessment" in out
        assert "Portfolio rollup" in out
        assert "FR" in out

    def test_rank_placement_table(self, capsys, spec_path):
        assert main(["portfolio", "--spec", str(spec_path),
                     "--rank-placement", "--load-kwh", "500"]) == 0
        out = capsys.readouterr().out
        assert "Marginal placement of 500 kWh" in out
        assert "snapshot" in out

    def test_carbon_aware_ranking(self, capsys, spec_path):
        assert main(["portfolio", "--spec", str(spec_path),
                     "--rank-placement", "--carbon-aware"]) == 0
        assert "carbon-aware" in capsys.readouterr().out

    def test_json_format(self, capsys, spec_path):
        assert main(["portfolio", "--spec", str(spec_path),
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["sites"] == 3
        assert data["summary"]["total_kg"] > 0
        assert {row["member"] for row in data["sites"]} == {"GB", "FR", "PL"}
        assert data["placement"]["snapshot"][0]["rank"] == 1

    def test_csv_format_site_rows(self, capsys, spec_path):
        assert main(["portfolio", "--spec", str(spec_path),
                     "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("member,")
        assert text.count("\n") == 4  # header + three sites

    def test_csv_format_placement_rows(self, capsys, spec_path, tmp_path):
        out_path = tmp_path / "placement.csv"
        assert main(["portfolio", "--spec", str(spec_path),
                     "--rank-placement", "--format", "csv",
                     "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("rank,")
        assert text.count("\n") == 4

    def test_substrate_cache_dir_persists(self, capsys, spec_path, tmp_path):
        cache_dir = tmp_path / "substrates"
        argv = ["portfolio", "--spec", str(spec_path), "--format", "csv",
                "--substrate-cache-dir", str(cache_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # One physical config behind three sites: exactly one entry.
        assert len(list(cache_dir.glob("*.npz"))) == 1
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestPortfolioErrorPaths:
    def test_spec_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["portfolio"])
        assert err.value.code == 2
        assert "--spec" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        assert main(["portfolio", "--spec", "/does/not/exist.json"]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_spec_file_with_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["portfolio", "--spec", str(bad)]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_spec_file_that_is_not_an_object(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        assert main(["portfolio", "--spec", str(bad)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_member_fields_rejected(self, capsys, tmp_path):
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps({
            "members": [{"name": "a", "load_share": 1.0, "warp_factor": 9}],
        }), encoding="utf-8")
        assert main(["portfolio", "--spec", str(bad)]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_load_shares_not_summing_to_one(self, capsys, tmp_path):
        bad = tmp_path / "shares.json"
        bad.write_text(json.dumps({
            "members": [
                {"name": "a", "load_share": 0.5, "region": "GB"},
                {"name": "b", "load_share": 0.4, "region": "FR"},
            ],
        }), encoding="utf-8")
        assert main(["portfolio", "--spec", str(bad)]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_unknown_region(self, capsys, tmp_path):
        bad = tmp_path / "region.json"
        bad.write_text(json.dumps({
            "members": [{"name": "a", "load_share": 1.0,
                         "region": "ATLANTIS",
                         "spec": {"node_scale": 0.02}}],
        }), encoding="utf-8")
        assert main(["portfolio", "--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "region-ATLANTIS" in err and "registered names" in err

    def test_invalid_format_is_a_parse_error(self, capsys, spec_path):
        with pytest.raises(SystemExit) as err:
            main(["portfolio", "--spec", str(spec_path), "--format", "xml"])
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_load_kwh_requires_rank_placement(self, capsys, spec_path):
        assert main(["portfolio", "--spec", str(spec_path),
                     "--load-kwh", "100"]) == 2
        assert "--rank-placement" in capsys.readouterr().err

    def test_carbon_aware_requires_rank_placement(self, capsys, spec_path):
        assert main(["portfolio", "--spec", str(spec_path),
                     "--carbon-aware"]) == 2
        assert "--rank-placement" in capsys.readouterr().err

    def test_invalid_load_kwh_is_a_parse_error(self, capsys, spec_path):
        with pytest.raises(SystemExit) as err:
            main(["portfolio", "--spec", str(spec_path),
                  "--rank-placement", "--load-kwh", "0"])
        assert err.value.code == 2
        assert "must be positive" in capsys.readouterr().err
