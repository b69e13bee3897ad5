import argparse
import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncstat as u
from uncstat.cli import build_parser, main
from uncstat.pipeline import MODES
from test_pipeline import data_files, mutate


@pytest.fixture
def field_paths():
    return u.dataset_paths("toothmarks")


def run(argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_successful_run_is_zero(self, field_paths, capsys):
        data, config = field_paths
        assert run(["--data", data, "--config", config]) == 0
        out = capsys.readouterr().out
        assert "homogeneity hypothesis: rejected" in out

    def test_missing_data_file_is_two(self, tmp_path, capsys):
        assert run(["--data", tmp_path / "nope.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_data_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("population,value\n1,abc\n", encoding="utf-8")
        assert run(["--data", bad]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_error_names_the_file_line_not_the_record(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('population,value\n"a\nb",1\nc,x\n', encoding="utf-8")
        assert run(["--data", bad]) == 2
        assert "line 4: value 'x' is not numeric" in capsys.readouterr().err

    def test_nul_in_an_id_is_two(self, tmp_path, capsys):
        bad = tmp_path / "nul.csv"
        bad.write_text("population,value\na\0,1\na,2\nb,3\n", encoding="utf-8")
        assert run(["--data", bad]) == 2
        err = capsys.readouterr().err
        assert "line 2: line contains NUL" in err and "Traceback" not in err

    def test_over_long_field_is_two(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("population,value\na,1\n" + "a" * 200_000 + ",2\n", encoding="utf-8")
        assert run(["--data", data]) == 2
        err = capsys.readouterr().err
        assert "line 3: field larger than field limit" in err and "Traceback" not in err

    def test_over_long_field_names_the_line_it_crosses_the_limit_on(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text('population,value\na,1\n"a\n' + "a" * 200_000 + '",2\n', encoding="utf-8")
        assert run(["--data", data]) == 2
        assert "line 4: field larger than field limit" in capsys.readouterr().err

    def test_deeply_nested_config_is_two(self, field_paths, tmp_path, capsys):
        data, _ = field_paths
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000, encoding="utf-8")
        assert run(["--data", data, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config nests too deeply" in err and "Traceback" not in err

    def test_bad_config_is_two(self, field_paths, tmp_path, capsys):
        data, _ = field_paths
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"case": "nonsense"}), encoding="utf-8")
        assert run(["--data", data, "--config", cfg]) == 2

    def test_integer_too_long_to_read_is_two(self, field_paths, tmp_path, capsys):
        data, _ = field_paths
        cfg = tmp_path / "c.json"
        cfg.write_text('{"alpha": %s}' % ("1" * 5000), encoding="utf-8")
        assert run(["--data", data, "--config", cfg]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tree, message",
        [
            ({"group_selection": "12"}, "group_selection must be a list of population ids"),
            ({"group_selection": 5}, "group_selection must be a list of population ids"),
            ({"populations": 5}, "populations must be a list"),
            ({"populations": [{"id": None}]}, "population id must be a string, got None"),
        ],
        ids=["string-group", "number-group", "number-populations", "null-id"],
    )
    def test_mistyped_config_is_two(self, field_paths, tmp_path, capsys, tree, message):
        data, _ = field_paths
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tree), encoding="utf-8")
        assert run(["--data", data, "--config", cfg, "--mode", "common"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_undecodable_config_is_two(self, field_paths, tmp_path, capsys):
        data, _ = field_paths
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"alpha": 0.1\xff}')
        assert run(["--data", data, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config is not UTF-8 text" in err and "Traceback" not in err

    # The pins decide the case and the pooled test's target; configs that
    # still name either are refused, whatever the value.
    @pytest.mark.parametrize("key", ["case", "common_case"])
    def test_case_setting_in_config_is_two(self, field_paths, tmp_path, capsys, key):
        data, _ = field_paths
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: "auto"}), encoding="utf-8")
        assert run(["--data", data, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"unknown config keys: ['{key}']" in err and "Traceback" not in err

    def test_config_population_without_data_is_two(self, field_paths, tmp_path, capsys):
        data, _ = field_paths
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"populations": [{"id": "ghost", "known_e": 1.0}]}), "utf-8")
        assert run(["--data", data, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "absent from data: ['ghost']" in err and "Traceback" not in err

    def test_bad_alpha_is_two(self, field_paths, capsys):
        data, config = field_paths
        assert run(["--data", data, "--config", config, "--alpha", "1.5"]) == 2

    def test_tiny_alpha_is_two(self, field_paths, tmp_path, capsys):
        data, config = field_paths
        assert run(["--data", data, "--config", config, "--alpha", "1e-17"]) == 2
        err = capsys.readouterr().err
        assert "1e-17" in err and "too small" in err and "Traceback" not in err
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"alpha": 1e-17}), encoding="utf-8")
        assert run(["--data", data, "--config", cfg]) == 2
        assert "1e-17" in capsys.readouterr().err

    def test_overflowing_moments_is_three(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        rows = ["a,1e200", "a,2e200", "a,3e200", "b,1.5", "b,2.5", "b,3.1"]
        huge.write_text("population,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert run(["--data", huge]) == 3
        err = capsys.readouterr().err
        assert "numeric error" in err and "overflow" in err and "Traceback" not in err

    def test_overflow_names_the_population(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = ["a,1.5", "a,2.5", "a,3.1", "b,1e200", "b,2e200", "b,3e200", "c,1", "c,2", "c,4"]
        path.write_text("population,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert run(["--data", path]) == 3
        err = capsys.readouterr().err
        assert "population 'b'" in err and "overflow" in err and "Traceback" not in err

    def test_rescale_overflow_is_three(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("population,value\na,-1\na,1\nb,-1\nb,1\n", encoding="utf-8")
        config = tmp_path / "c.json"
        pinned = [{"id": pid, "known_sigma": 1e-320} for pid in "ab"]
        config.write_text(
            json.dumps({"populations": pinned, "group_selection": ["a", "b"]}), encoding="utf-8"
        )
        assert run(["--data", data, "--config", config]) == 3
        err = capsys.readouterr().err
        assert "numeric error" in err and "population 'a'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "sigma,problem", [(1e-12, "is empty"), (1e308, "is not finite")], ids=["tiny", "huge"]
    )
    def test_unrepresentable_band_is_three(self, tmp_path, capsys, sigma, problem):
        data = tmp_path / "d.csv"
        rows = ["a,1000000000.0", "a,1000000001.0", "a,1000000002.5",
                "b,1000000000.5", "b,1000000001.5", "b,1000000003.0"]
        data.write_text("population,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        config = tmp_path / "c.json"
        pinned = [{"id": pid, "known_sigma": sigma} for pid in "ab"]
        config.write_text(json.dumps({"populations": pinned}), encoding="utf-8")
        for fmt in ("text", "structured"):
            assert run(["--data", data, "--config", config, "--format", fmt]) == 3
            err = capsys.readouterr().err
            assert "numeric error" in err and problem in err and "Traceback" not in err
            assert f"sigma={sigma!r}" in err and "level 0.05" in err

    def test_empty_cross_band_names_both_populations(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = ["a,0", "a,1e-13", "a,-1e-13", "a,2e-13",
                "b,1000000000.0", "b,1000000001.0", "b,1000000000.5"]
        data.write_text("population,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        config = tmp_path / "c.json"
        pinned = [{"id": "a", "known_sigma": 1e-12}, {"id": "b", "known_sigma": 1}]
        config.write_text(json.dumps({"populations": pinned}), encoding="utf-8")
        assert run(["--data", data, "--config", config]) == 3
        err = capsys.readouterr().err
        assert "numeric error: population 'a' against the fit of 'b': acceptance band" in err
        assert "is empty" in err and "Traceback" not in err

    def test_groups_past_the_search_budget_are_two(self, field_paths, capsys, monkeypatch):
        data, config = field_paths
        document = u.emit_report(u.run_pipeline(*u.ingest(data, config)), "structured")
        monkeypatch.setattr(u.multi, "CLIQUE_BUDGET", 2)
        assert run(["--data", data, "--config", config]) == 2
        err = capsys.readouterr().err
        assert "budget of 2 steps" in err and "--mode common and --group" in err
        with pytest.raises(u.DataFormatError, match="budget of 2 steps"):
            u.parse_report(document)
        assert run(["--data", data, "--config", config, "--mode", "common"]) == 0

    def test_pairs_past_the_budget_are_two(self, field_paths, capsys, monkeypatch):
        # The field study has 6 populations, so 15 pairs: one past a budget of 14.
        data, config = field_paths
        document = u.emit_report(u.run_pipeline(*u.ingest(data, config)), "structured")
        rows = []
        monkeypatch.setattr(u.multi, "PAIR_BUDGET", 14)
        monkeypatch.setattr(u.multi.CrossTests, "_build_row", lambda self, k, _: rows.append(k))
        assert run(["--data", data, "--config", config]) == 2
        err = capsys.readouterr().err
        assert "6 populations make 15 pairs" in err and "budget of 14 pairs" in err
        assert "--mode fit" in err and "--mode common and --group" in err
        with pytest.raises(u.DataFormatError, match="15 pairs"):
            u.parse_report(document)
        assert rows == []  # refused before any row was built
        for mode in ("fit", "common"):
            assert run(["--data", data, "--config", config, "--mode", mode]) == 0

    def test_pairs_at_the_budget_run(self, field_paths, monkeypatch):
        data, config = field_paths
        monkeypatch.setattr(u.multi, "PAIR_BUDGET", 15)
        assert run(["--data", data, "--config", config, "--mode", "homogeneity"]) == 0

    def test_degenerate_sample_is_three(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("population,value\n1,2.0\n1,2.0\n1,2.0\n", encoding="utf-8")
        assert run(["--data", flat, "--mode", "fit"]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_ambiguous_group_is_two(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        rows = ["population,value"]
        base = (-0.2, -0.1, 0.0, 0.1, 0.2)
        for pid, shift in [("1", 0.0), ("2", 0.05), ("3", 100.0), ("4", 100.05)]:
            rows += [f"{pid},{v + shift}" for v in base]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run(["--data", path]) == 2
        assert "ambiguous" in capsys.readouterr().err
        assert run(["--data", path, "--group", "3,4"]) == 0


class TestTextReport:
    def test_huge_magnitudes_render(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = ["a,1e30", "a,2e30", "a,3.5e30", "b,1.5e30", "b,2.5e30", "b,3.1e30"]
        path.write_text("population,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert run(["--data", path, "--group", "a,b"]) == 0
        captured = capsys.readouterr()
        assert "pooled test on selected group" in captured.out
        assert "2166666666666666700000000000000.000" in captured.out
        assert captured.err == ""

    def test_report_stdout_cannot_encode_is_two(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "e.csv"
        data.write_text("population,value\n\u00e9,1\n\u00e9,2\n\u00e9,3.5\n", encoding="utf-8")
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
        assert run(["--data", data, "--mode", "fit"]) == 2
        sys.stdout.flush()
        assert raw.getvalue() == b""  # no part of the report reached stdout
        err = capsys.readouterr().err
        assert "encoding (ascii)" in err and "--report" in err and "Traceback" not in err
        report = tmp_path / "r.txt"
        assert run(["--data", data, "--mode", "fit", "--report", report]) == 0
        assert "\u00e9" in report.read_text(encoding="utf-8")

    def test_structured_report_suits_an_ascii_stdout(self, tmp_path, monkeypatch):
        data = tmp_path / "e.csv"
        data.write_text("population,value\n\u00e9,1\n\u00e9,2\n\u00e9,3.5\n", encoding="utf-8")
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
        assert run(["--data", data, "--mode", "fit", "--format", "structured"]) == 0
        sys.stdout.flush()
        report = u.parse_report(raw.getvalue().decode("ascii"))
        assert report.populations[0].sample.id == "\u00e9"


class TestFlags:
    def test_report_file_and_structured_format(self, field_paths, tmp_path):
        data, config = field_paths
        out = tmp_path / "report.json"
        assert run(["--data", data, "--config", config, "--format", "structured", "--report", out]) == 0
        report = u.parse_report(out.read_text(encoding="utf-8"))
        assert report.selected_group == ("3", "4", "5", "6")
        assert not report.common.decision.rejected

    def test_mode_fit_stops_early(self, field_paths, capsys):
        data, config = field_paths
        assert run(["--data", data, "--config", config, "--mode", "fit"]) == 0
        out = capsys.readouterr().out
        assert "population fits" in out
        assert "pooled test" not in out

    def test_alpha_override_changes_bands(self, field_paths, tmp_path):
        data, config = field_paths
        wide, narrow = tmp_path / "a.json", tmp_path / "b.json"
        base = ["--data", data, "--config", config, "--mode", "fit", "--format", "structured"]
        assert run(base + ["--report", wide]) == 0
        assert run(base + ["--report", narrow, "--alpha", "0.2"]) == 0
        r_wide = u.parse_report(wide.read_text(encoding="utf-8"))
        r_narrow = u.parse_report(narrow.read_text(encoding="utf-8"))
        assert r_narrow.alpha == 0.2
        band = r_narrow.populations[0].self_test.interval
        band_wide = r_wide.populations[0].self_test.interval
        assert band_wide.lower < band.lower < band.upper < band_wide.upper

    def test_theta0_override(self, field_paths, tmp_path, capsys):
        data, config = field_paths
        out = tmp_path / "r.json"
        code = run(
            ["--data", data, "--config", config, "--group", "3,4,5,6",
             "--theta0", "2.516,0.083", "--format", "structured", "--report", out]
        )
        assert code == 0
        report = u.parse_report(out.read_text(encoding="utf-8"))
        assert report.common.theta0 == u.NormalUncertain(2.516, 0.083)
        assert not report.common.decision.rejected

    def test_bad_theta0_is_two(self, field_paths, capsys):
        data, config = field_paths
        assert run(["--data", data, "--config", config, "--theta0", "oops"]) == 2

    def test_bad_group_flag_is_two(self, field_paths, capsys):
        data, config = field_paths
        assert run(["--data", data, "--config", config, "--group", "3,zzz"]) == 2

    def test_plot_data_flag(self, field_paths, tmp_path):
        data, config = field_paths
        plot = tmp_path / "points.csv"
        assert run(["--data", data, "--config", config, "--plot-data", plot]) == 0
        lines = plot.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "population,index,value,interval_source,lower,upper,is_outlier"
        assert len(lines) == 1 + 38 * 6

    def test_unwritable_report_path_is_two(self, field_paths, tmp_path, capsys):
        data, config = field_paths
        assert run(["--data", data, "--config", config, "--report", tmp_path / "no" / "dir.txt"]) == 2

    def test_a_failed_run_writes_no_report(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("population,value\na,1\na,1\nb,2\nb,3\n", encoding="utf-8")
        out = tmp_path / "r.txt"
        assert run(["--data", data, "--report", out]) == 3
        assert not out.exists()

    def test_report_and_file_match_emit_report(self, field_paths, tmp_path, capsys):
        data, config = field_paths
        samples, cfg = u.ingest(data, config)
        report = u.run_pipeline(samples, cfg)
        for fmt in ("text", "structured"):
            out = tmp_path / f"r.{fmt}"
            assert run(["--data", data, "--config", config, "--format", fmt, "--report", out]) == 0
            assert run(["--data", data, "--config", config, "--format", fmt]) == 0
            expected = u.emit_report(report, fmt)
            assert out.read_bytes() == expected.encode("utf-8")
            assert capsys.readouterr().out == expected


class TestOutputPaths:
    """An output file may not be an input, nor the other output."""

    @pytest.fixture
    def study(self, field_paths, tmp_path):
        paths = tmp_path / "tm.csv", tmp_path / "tm.json"
        for copy_, original in zip(paths, field_paths):
            copy_.write_bytes(Path(original).read_bytes())
        return paths

    @pytest.mark.parametrize(
        "flag, target, named",
        [
            ("--report", "tm.csv", "--data"),
            ("--report", "tm.json", "--config"),
            ("--plot-data", "tm.csv", "--data"),
            ("--plot-data", "tm.json", "--config"),
            ("--report", "sub/../tm.csv", "--data"),
            ("--report", "link.csv", "--data"),
            ("--plot-data", "hard.json", "--config"),
        ],
    )
    def test_an_output_naming_an_input_is_two(self, study, tmp_path, capsys, flag, target, named):
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(study[0])
        (tmp_path / "hard.json").hardlink_to(study[1])
        before = [path.read_bytes() for path in study]
        argv = ["--data", study[0], "--config", study[1], "--format", "structured"]
        assert run(argv + [flag, tmp_path / target]) == 2
        err = capsys.readouterr().err
        assert f"{flag} and {named} name the same file" in err and "Traceback" not in err
        assert [path.read_bytes() for path in study] == before

    def test_plot_data_naming_the_report_is_two(self, study, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--data", study[0], "--config", study[1], "--report", out]
        assert run(argv + ["--plot-data", out]) == 2
        assert "--plot-data and --report name the same file" in capsys.readouterr().err
        assert not out.exists()
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "sub")
        assert run(argv + ["--plot-data", tmp_path / "link" / ".." / "out"]) == 2
        assert not out.exists()
        out.write_text("kept", encoding="utf-8")
        assert run(argv + ["--plot-data", tmp_path / "." / "out"]) == 2
        assert out.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize(
        "report, plot",
        [
            ("r.json", "missing/p.csv"),
            ("missing/r.json", "p.csv"),
            ("r.json", "tm.csv/p.csv"),
            ("tm.json/r.json", "p.csv"),
            ("r.json", "dir"),
            ("dir", "p.csv"),
        ],
    )
    def test_an_output_that_cannot_be_made_is_two(self, study, tmp_path, capsys, report, plot):
        (tmp_path / "dir").mkdir()
        argv = ["--data", study[0], "--config", study[1], "--format", "structured",
                "--report", tmp_path / report, "--plot-data", tmp_path / plot]
        assert run(argv) == 2
        err = capsys.readouterr().err
        flag = "--plot-data" if report == "r.json" else "--report"
        assert f"uncstat: error: {flag}: cannot make a file at" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "tm.csv", "tm.json"]
        assert not any((tmp_path / "dir").iterdir())

    def test_distinct_outputs_are_written(self, study, tmp_path):
        argv = ["--data", study[0], "--config", study[1], "--report", tmp_path / "r.txt",
                "--plot-data", tmp_path / "p.csv"]
        assert run(argv) == 0
        assert (tmp_path / "r.txt").is_file() and (tmp_path / "p.csv").is_file()

    # Population a's data against b's fit has a band below the spacing of
    # doubles at 1e16.  The fit and common modes build no cross band before
    # the plot data does, and a band that fails leaves neither output.
    @pytest.mark.parametrize("mode", ["fit", "common", "pipeline"])
    def test_a_plot_band_that_fails_leaves_no_output(self, tmp_path, capsys, mode):
        data, config = tmp_path / "d.csv", tmp_path / "c.json"
        big = [1e16, 1e16 + 2, 1e16 - 2, 1e16 + 4]
        rows = [("a", v) for v in big] + [("b", v) for v in (1e-8, -1e-8, 2e-8, -2e-8)]
        data.write_text("population,value\n" + "".join(f"{i},{v!r}\n" for i, v in rows),
                        encoding="utf-8")
        config.write_text(json.dumps({"populations": [{"id": "a", "known_e": 1e16},
                                                      {"id": "b", "known_e": 0}]}),
                          encoding="utf-8")
        argv = ["--data", data, "--config", config, "--mode", mode,
                "--report", tmp_path / "r.txt", "--plot-data", tmp_path / "p.csv"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "uncstat: numeric error: population 'a' against the fit of 'b': " in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "d.csv"]


@pytest.fixture
def fresh_parser():
    """A process whose ``main`` has not built its parser yet."""
    u.cli._parser.cache_clear()
    yield
    u.cli._parser.cache_clear()


class TestParser:
    def test_main_builds_one_parser_per_process(self, field_paths, monkeypatch, fresh_parser,
                                                capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        data, config = field_paths
        for mode in MODES:
            assert run(["--data", data, "--config", config, "--mode", mode]) == 0
        assert len(built) == 1
        assert build_parser() is not build_parser()
        assert len(built) == 3

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built, init = [], argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(a) or init(*a, **k)\n"
            "import uncstat.cli\n"
            "print(len(built))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
        assert out.stdout.decode("ascii").strip() == "0"

    @pytest.mark.parametrize(
        "flags",
        [["--alpha", "0.1"], ["--group", "3,4,5,6"], ["--group", "3,4,5,6", "--theta0", "2.516,0.083"]],
        ids=["alpha", "group", "theta0"],
    )
    def test_calls_share_no_parsed_state(self, field_paths, tmp_path, fresh_parser, flags):
        data, config = field_paths

        def outputs(extra, name):
            report, plot = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            argv = ["--data", data, "--config", config, "--format", "structured",
                    "--report", report, "--plot-data", plot]
            assert run(argv + extra) == 0
            return report.read_bytes(), plot.read_bytes()

        flagged_first, plain_after = outputs(flags, "a"), outputs([], "b")
        u.cli._parser.cache_clear()
        plain_first, flagged_after = outputs([], "c"), outputs(flags, "d")
        assert flagged_first == flagged_after and plain_first == plain_after
        assert flagged_first != plain_first

    def test_help_is_the_parsers_help(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()

    def test_unknown_flag_is_two_before_and_after_a_run(self, field_paths, fresh_parser, capsys):
        data, config = field_paths
        usage = build_parser().format_usage()
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_:
                run(["--data", data, "--bogus"])
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(usage) and "unrecognized arguments: --bogus" in err
            assert run(["--data", data, "--config", config]) == 0


def cli(argv):
    """Exit code and standard error of one in-process run; an exception that
    escapes ``main`` is the traceback a user would see, and fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


_RUNS = st.tuples(st.sampled_from(MODES), st.sampled_from(["text", "structured"]))

# A config the fuzzed data can satisfy, for the config trees to start from.
_CONFIG = {
    "alpha": 0.05,
    "populations": [
        {"id": "a", "known_e": None, "known_sigma": 0.5},
        {"id": "b", "known_e": None, "known_sigma": 1.0},
    ],
    "group_selection": ["a", "b"],
    "theta0": {"e": 0.0, "sigma": 1.0},
}
_DATA = "population,value\n" + "".join(f"a,{v}\nb,{v + 0.25}\n" for v in (0.1, 0.4, 0.9, 1.3))


class TestFuzz:
    """Every input ends in a report (exit 0) or a typed error (2 or 3)."""

    @given(text=data_files(), junk=st.sampled_from([b"", b"\xff", b"\xc3", b"\xed\xa0\x80"]),
           at=st.integers(0, 200), how=_RUNS)
    @settings(max_examples=100, deadline=None)
    def test_any_data_file(self, text, junk, at, how):
        raw = text.encode("utf-8")
        raw = raw[:at] + junk + raw[at:]  # invalid UTF-8 when junk is drawn
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "d.csv"
            data.write_bytes(raw)
            code, err = cli(["--data", data, "--mode", how[0], "--format", how[1],
                             "--report", Path(tmp) / "r", "--plot-data", Path(tmp) / "p.csv"])
        assert code in (0, 2, 3) and "Traceback" not in err

    @given(data=st.data(), how=_RUNS)
    @settings(max_examples=100, deadline=None)
    def test_any_config_tree(self, data, how):
        tree = copy.deepcopy(_CONFIG)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            mutate(tree, data)
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp) / "d.csv", Path(tmp) / "c.json"
            paths[0].write_text(_DATA, encoding="utf-8")
            paths[1].write_text(json.dumps(tree), encoding="utf-8")
            code, err = cli(["--data", paths[0], "--config", paths[1], "--mode", how[0],
                             "--format", how[1], "--report", Path(tmp) / "r"])
        assert code in (0, 2, 3) and "Traceback" not in err
