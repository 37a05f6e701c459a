"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from oracles import use_reference_scheduler

from repro.api import BatchAssessmentRunner, SubstrateCache
from repro.cli import main
from repro.portfolio import PortfolioRunner, PortfolioSpec
from repro.serve import ServeConfig
from repro.snapshot.experiment import SnapshotExperiment


class TestInventory:
    def test_prints_table1(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "QMUL" in out
        assert "808" in out          # Durham CPU nodes


class TestIntensity:
    def test_summary(self, capsys):
        assert main(["intensity", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "medium reference" in out

    def test_chart(self, capsys):
        assert main(["intensity", "--days", "1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "*" in out

    def test_invalid_days(self, capsys):
        assert main(["intensity", "--days", "0"]) == 2


class TestSnapshot:
    def test_scaled_snapshot(self, capsys, tmp_path):
        code = main(["snapshot", "--scale", "0.05", "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "total kgCO2e" in out
        assert (tmp_path / "table2_energy.csv").exists()
        assert (tmp_path / "table3_active_carbon.csv").exists()
        assert (tmp_path / "table4_embodied.csv").exists()

    def test_invalid_scale(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["snapshot", "--scale", "0"])
        assert err.value.code == 2
        assert "--scale" in capsys.readouterr().err


class TestScenarios:
    def test_default_arguments_reproduce_paper_grids(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Table 4" in out
        # A recognisable Table 4 cell (3-year lifetime, 1100 kg estimate).
        assert "2,408" in out or "2,409" in out

    def test_invalid_servers(self, capsys):
        assert main(["scenarios", "--servers", "0"]) == 2


class TestUncertainty:
    def test_runs_and_reports(self, capsys):
        assert main(["uncertainty", "--samples", "2000"]) == 0
        out = capsys.readouterr().out
        assert "total_kg_mean" in out

    def test_invalid_samples(self, capsys):
        assert main(["uncertainty", "--samples", "0"]) == 2


class TestAssess:
    def test_inline_overrides(self, capsys):
        assert main(["assess", "--scale", "0.05", "--intensity", "50",
                     "--pue", "1.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "total kgCO2e" in out

    def test_matches_snapshot_command(self, capsys):
        assert main(["assess", "--scale", "0.05"]) == 0
        assess_out = capsys.readouterr().out
        assert main(["snapshot", "--scale", "0.05"]) == 0
        snapshot_out = capsys.readouterr().out
        assert assess_out == snapshot_out

    def test_spec_file(self, capsys, tmp_path):
        from repro.api import default_spec

        spec_path = tmp_path / "spec.json"
        default_spec(node_scale=0.05).to_json(spec_path)
        assert main(["assess", "--spec", str(spec_path)]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        assert main(["assess", "--scale", "0.05", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["total_kg"] > 0
        assert data["spec"]["node_scale"] == 0.05

    def test_csv_format_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "summary.csv"
        assert main(["assess", "--scale", "0.05", "--format", "csv",
                     "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("inventory,")
        assert text.count("\n") == 2  # header + one row

    def test_table_format_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "tables.txt"
        assert main(["assess", "--scale", "0.05",
                     "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert "Table 2" in text
        assert "total kgCO2e" in text

    def test_output_dir_tables(self, capsys, tmp_path):
        assert main(["assess", "--scale", "0.05",
                     "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "table2_energy.csv").exists()
        assert (tmp_path / "table3_active_carbon.csv").exists()
        assert (tmp_path / "table4_embodied.csv").exists()

    def test_invalid_scale_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["assess", "--scale", "0"])
        assert err.value.code == 2
        assert "(0, 1]" in capsys.readouterr().err

    def test_invalid_pue_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["assess", "--pue", "0.8"])
        assert err.value.code == 2
        assert "at least 1.0" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        assert main(["assess", "--spec", "/does/not/exist.json"]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_unknown_component_name(self, capsys):
        assert main(["assess", "--scale", "0.05",
                     "--amortization", "no-such-policy"]) == 2
        assert "no-such-policy" in capsys.readouterr().err


class TestSnapshotValidation:
    """``snapshot`` is an alias of ``assess``: the same inputs fail the same
    way (argparse exit for parse-time checks, 2 for the later ones)."""

    def test_invalid_pue_returns_error_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["snapshot", "--scale", "0.05", "--pue", "0.5"])
        assert err.value.code == 2
        assert "--pue" in capsys.readouterr().err

    def test_invalid_intensity_returns_error_code(self, capsys):
        assert main(["snapshot", "--scale", "0.05", "--intensity", "-1"]) == 2
        assert "--intensity" in capsys.readouterr().err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])


class TestAssessErrorPaths:
    """The assess error paths: bad spec files, bad formats, conflicts."""

    def test_spec_file_with_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["assess", "--spec", str(bad)]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_spec_file_with_unknown_fields(self, capsys, tmp_path):
        bad = tmp_path / "unknown.json"
        bad.write_text('{"node_scale": 0.05, "warp_factor": 9}', encoding="utf-8")
        assert main(["assess", "--spec", str(bad)]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_spec_file_that_is_not_an_object(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]", encoding="utf-8")
        assert main(["assess", "--spec", str(bad)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_spec_file_with_invalid_values(self, capsys, tmp_path):
        bad = tmp_path / "badvalues.json"
        bad.write_text('{"node_scale": 7.0}', encoding="utf-8")
        assert main(["assess", "--spec", str(bad)]) == 2
        assert "node_scale" in capsys.readouterr().err

    def test_invalid_format_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["assess", "--format", "xml"])
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_grid_and_intensity_conflict(self, capsys):
        assert main(["assess", "--scale", "0.05", "--grid", "uk-november-2022",
                     "--intensity", "175"]) == 2
        assert "conflict" in capsys.readouterr().err

    def test_negative_intensity_returns_error_code(self, capsys):
        assert main(["assess", "--scale", "0.05", "--intensity", "-3"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_unknown_grid_provider(self, capsys):
        assert main(["assess", "--scale", "0.05", "--grid", "atlantis"]) == 2
        err = capsys.readouterr().err
        assert "atlantis" in err and "registered names" in err

    def test_non_finite_lifetime_returns_error_code(self, capsys):
        assert main(["assess", "--scale", "0.05", "--lifetime", "inf"]) == 2
        assert "lifetime_years must be finite" in capsys.readouterr().err

    def test_invalid_lifetime_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["assess", "--lifetime", "0"])
        assert err.value.code == 2
        assert "must be positive" in capsys.readouterr().err


class TestSubstrateCacheFlags:
    def test_assess_persists_and_reloads_substrate(self, capsys, tmp_path):
        cache_dir = tmp_path / "substrates"
        argv = ["assess", "--scale", "0.02", "--format", "csv",
                "--substrate-cache-dir", str(cache_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(cache_dir.glob("*.npz")) and list(cache_dir.glob("*.json"))
        # A second process-equivalent run loads the persisted substrate and
        # reproduces the identical numbers.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_temporal_accepts_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "substrates"
        assert main(["temporal", "--scale", "0.02", "--format", "csv",
                     "--substrate-cache-dir", str(cache_dir)]) == 0
        assert list(cache_dir.glob("*.npz"))


class TestSitesRunInOrder:
    """Sites always run one after another: the site thread count is gone
    from the CLI (a usage error) and from the library (a ``TypeError``)."""

    @pytest.mark.parametrize("argv", [
        ["assess", "--scale", "0.02"],
        ["temporal", "--scale", "0.02"],
        ["uncertainty", "--scale", "0.02"],
        ["portfolio", "--spec", "folio.json"],
        ["serve", "--port", "0"],
    ], ids=lambda argv: argv[0])
    def test_jobs_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--jobs", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("build", [
        lambda: SubstrateCache(jobs=1),
        lambda: ServeConfig(jobs=1),
        lambda: SnapshotExperiment(max_workers=2),
        lambda: SnapshotExperiment().run(max_workers=2),
        lambda: BatchAssessmentRunner(jobs=2),
        lambda: PortfolioRunner(PortfolioSpec.from_regions(["GB"]), jobs=2),
    ], ids=["substrate-cache", "serve-config", "snapshot-experiment",
            "snapshot-run", "batch-runner", "portfolio-runner"])
    def test_keyword_is_a_type_error(self, build):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()


class TestSchedulerEngineFlags:
    """The CLI's answer does not depend on the scheduling loop."""

    def test_reference_engine_matches_default(self, monkeypatch, tmp_path):
        """``repro assess --scale 0.02`` answers byte-identically with the
        seed loop (``oracles.scheduler``) swapped in: same spec, same
        summary and Table 2 digests.

        Each run gets a fresh ``--substrate-cache-dir``, so a private
        substrate cache, and the second run simulates afresh instead of
        reusing the first.
        """
        def assess(name):
            out = tmp_path / name
            assert main(["assess", "--scale", "0.02",
                         "--substrate-cache-dir", str(tmp_path / f"{name}.d"),
                         "--format", "json", "--output", str(out)]) == 0
            return json.loads(out.read_text())

        def digest(doc):
            return hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest()

        indexed = assess("indexed.json")
        use_reference_scheduler(monkeypatch)
        reference = assess("reference.json")
        assert indexed["spec"] == reference["spec"]
        for key in ("summary", "table2"):
            assert digest(indexed[key]) == digest(reference[key]), key


class TestTimingsFlag:
    def test_table_appends_timings(self, capsys):
        assert main(["assess", "--scale", "0.02", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "Per-site simulation wall-clock" in out
        assert "calibration_s" in out
        assert "schedule_s" in out
        assert "TOTAL" in out

    def test_json_gains_timings_key(self, capsys):
        assert main(["assess", "--scale", "0.02", "--format", "json",
                     "--timings"]) == 0
        import json as jsonlib

        payload = jsonlib.loads(capsys.readouterr().out)
        assert set(payload["timings"]) == {
            "QMUL", "CAM", "DUR", "STFC CLOUD", "STFC SCARF", "IMP"}
        for phases in payload["timings"].values():
            assert phases["total_s"] >= 0.0
        # The recorded result body itself is unchanged by --timings.
        assert "timings" not in payload["summary"]

    def test_csv_rejected(self, capsys):
        assert main(["assess", "--scale", "0.02", "--format", "csv",
                     "--timings"]) == 2
        assert "--timings" in capsys.readouterr().err
