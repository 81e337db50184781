"""Tests for the ``repro`` command-line interface."""

import pytest

from repro import __version__
from repro.cli import EXAMPLE_NAMES, build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_example_names_match_shipped_scripts(self):
        parser = build_parser()
        args = parser.parse_args(["example", "quickstart"])
        assert args.name == "quickstart"
        assert "travel_planning" in EXAMPLE_NAMES


class TestTables:
    def test_tables_prints_both_tables_and_findings(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "RPP" in out and "ARPP" in out
        assert "EXPTIME" in out
        assert "Section 9 findings" in out


class TestDemo:
    def test_demo_solves_all_four_problems(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "FRP: top-3 day plans" in out
        assert "RPP:" in out and "True" in out
        assert "MBP:" in out
        assert "CPP:" in out

    def test_demo_respects_k(self, capsys):
        assert main(["demo", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "top-1 day plans" in out

    def test_demo_fails_cleanly_when_unsatisfiable(self, capsys):
        # A zero budget admits no non-empty package, so no top-k selection exists.
        assert main(["demo", "--budget", "0"]) == 1
        assert "no top-k selection exists" in capsys.readouterr().out


class TestExperiments:
    def test_experiments_subset_to_stdout(self, capsys):
        code = main(["experiments", "--only", "EXP-F4.1", "--stdout"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXP-F4.1" in out
        assert "paper vs. measured" in out

    def test_experiments_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["experiments", "--only", "EXP-F4.1", "--output", str(target)])
        assert code == 0
        assert target.exists()
        assert "EXP-F4.1" in target.read_text(encoding="utf-8")

    def test_experiments_unknown_id_errors(self, capsys):
        assert main(["experiments", "--only", "EXP-NOPE", "--stdout"]) == 2
        assert "EXP-T8.1" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_range_probe_for_price_filtered_items(self, capsys):
        assert main(["explain", "items_under_30"]) == 0
        out = capsys.readouterr().out
        assert "plan (cost-based order):" in out
        assert "range items" in out  # the price <= 30 comparison drives a range probe
        assert "check price <= 30" in out
        assert "relation items: 200 rows" in out

    def test_explain_prints_probe_chain_for_path_query(self, capsys):
        assert main(["explain", "path3"]) == 0
        out = capsys.readouterr().out
        assert "scan edge" in out
        assert "probe edge" in out
        assert "semi-join reduction" in out

    def test_explain_without_statistics_uses_fallback_order(self, capsys):
        assert main(["explain", "path2", "--no-statistics"]) == 0
        out = capsys.readouterr().out
        assert "statistics-blind fallback order" in out

    def test_explain_triangle_renders_the_multiway_step(self, capsys):
        assert main(["explain", "triangle"]) == 0
        out = capsys.readouterr().out
        assert "multiway on (cyclic):" in out
        # The leapfrog step prints its global variable elimination order ...
        assert "multiway leapfrog, variable order [x0, x1, x2]" in out
        assert "AGM ~" in out
        # ... and one composite trie per atom, the closing edge in reversed
        # position order (x2 is resolved after x0 in the elimination order).
        assert "trie edge(x2, x0) on [1, 0]" in out

    def test_explain_four_cycle_renders_the_multiway_step(self, capsys):
        assert main(["explain", "four_cycle"]) == 0
        out = capsys.readouterr().out
        assert "multiway" in out and "x3" in out

    def test_explain_cyclic_without_statistics_falls_back_to_binary(self, capsys):
        """The statistics-blind planner compiles no multiway step at all."""
        assert main(["explain", "triangle", "--no-statistics"]) == 0
        out = capsys.readouterr().out
        assert "statistics-blind fallback order" in out
        assert "multiway" not in out
        assert "scan edge" in out and "probe edge" in out

    def test_explain_rejects_unknown_query(self):
        with pytest.raises(SystemExit):
            main(["explain", "not_a_query"])


class TestServe:
    def test_serve_replays_a_trace_and_reports_latency(self, capsys):
        assert main(["serve", "--items", "30", "--rounds", "2", "--batch", "6"]) == 0
        out = capsys.readouterr().out
        assert "round 0: epoch 0" in out
        assert "round 1: epoch 1" in out
        assert "requests/s" in out and "p99" in out

    @pytest.mark.parametrize("pool", [[], ["--workers", "4"]])
    def test_serve_baseline_agrees_and_reports_speedup(self, pool, capsys):
        code = main(
            ["serve", "--items", "30", "--rounds", "2", "--batch", "6", "--baseline"]
            + pool
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical answers = True" in out
        assert "speedup = " in out

    @pytest.mark.parametrize(
        "flag",
        [["--items", "not-a-number"], ["--workers", "0"], ["--workers", "-2"]],
    )
    def test_serve_rejects_bad_flags(self, flag):
        with pytest.raises(SystemExit) as exited:
            main(["serve"] + flag)
        assert exited.value.code == 2


class TestDurabilityCli:
    SERVE = ["serve", "--items", "20", "--rounds", "2", "--batch", "4"]

    def test_serve_wal_then_recover_round_trip(self, tmp_path, capsys):
        directory = tmp_path / "durable"
        assert main(self.SERVE + ["--wal", str(directory)]) == 0
        out = capsys.readouterr().out
        assert f"durability: write-ahead log under {directory}" in out
        assert "durable through epoch" in out
        assert main(["recover", str(directory)]) == 0
        out = capsys.readouterr().out
        assert f"recovered {directory} to epoch" in out
        assert "WAL records replayed" in out
        assert "rows" in out

    def test_serve_metrics_reports_wal_instruments(self, tmp_path, capsys):
        code = main(self.SERVE + ["--metrics", "--wal", str(tmp_path / "durable")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wal.records.appended" in out
        assert "wal.fsyncs" in out

    def test_serve_refuses_a_reused_wal_directory(self, tmp_path, capsys):
        # A second `serve --wal` over the same directory would rebuild a
        # fresh trace database and fork the existing durable history;
        # the CLI must refuse loudly, not lose acked commits silently.
        directory = tmp_path / "durable"
        assert main(self.SERVE + ["--wal", str(directory)]) == 0
        capsys.readouterr()
        assert main(self.SERVE + ["--wal", str(directory)]) == 1
        err = capsys.readouterr().err
        assert "refusing to serve" in err
        assert f"repro recover {directory}" in err

    def test_recover_fails_loudly_without_artifacts(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path)]) == 1
        assert "recovery failed" in capsys.readouterr().err


class TestExample:
    def test_example_runs_quickstart(self, capsys):
        assert main(["example", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "top-3 packages" in out

    def test_example_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["example", "not_an_example"])
