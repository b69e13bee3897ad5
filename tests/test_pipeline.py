import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncstat as u
from uncstat import (
    CommonCase,
    ConfigurationError,
    DataFormatError,
    NormalUncertain,
    ParameterCase,
    PopulationConfig,
    PopulationSample,
    RunConfig,
)
from uncstat.pipeline import MODES, _fmt3, config_from_dict, config_to_dict


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def tied_clique_samples():
    base = (-0.2, -0.1, 0.0, 0.1, 0.2)
    return [
        PopulationSample("1", base),
        PopulationSample("2", tuple(v + 0.05 for v in base)),
        PopulationSample("3", tuple(v + 100.0 for v in base)),
        PopulationSample("4", tuple(v + 100.05 for v in base)),
    ]


class TestConfig:
    def test_round_trip(self):
        config = RunConfig(
            alpha=0.01,
            case=ParameterCase.SIGMAS_UNKNOWN,
            populations=(PopulationConfig("a", known_e=1.0), PopulationConfig("b", known_e=2.0)),
            group_selection=("a", "b"),
            common_case=CommonCase.SIGMA,
            theta0_override=NormalUncertain(0.0, 2.0),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_defaults(self):
        config = config_from_dict({})
        assert config == RunConfig()
        assert config.alpha == 0.05

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"alhpa": 0.05})

    def test_unknown_population_key(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"populations": [{"id": "1", "sigma": 2.0}]})

    def test_duplicate_population_ids(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"populations": [{"id": "1"}, {"id": "1"}]})

    def test_bad_case_value(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"case": "sideways"})

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"alpha": 1.5})

    def test_bad_theta0(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"theta0": {"e": 0.0}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"theta0": {"e": 0.0, "sigma": -1.0}})


class TestIngest:
    def test_field_data_shape(self, toothmarks):
        samples, config = toothmarks
        assert [s.id for s in samples] == ["1", "2", "3", "4", "5", "6"]
        assert [s.size for s in samples] == [6, 7, 6, 6, 6, 7]
        assert config.alpha == 0.05

    def test_known_parameters_attach(self, example1):
        samples, _ = example1
        assert [s.known_e for s in samples] == [4.5, 5.0, 5.5]
        assert all(s.known_sigma is None for s in samples)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(DataFormatError):
            u.ingest(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "h.csv", "population,value\n")
        with pytest.raises(DataFormatError, match="no rows"):
            u.ingest(path)

    def test_wrong_header(self, tmp_path):
        path = write(tmp_path, "h.csv", "pop,val\n1,2.0\n")
        with pytest.raises(DataFormatError, match="line 1"):
            u.ingest(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "population,value\n1,2.0\n1,oops\n")
        with pytest.raises(DataFormatError, match="line 3"):
            u.ingest(path)

    def test_missing_field_names_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "population,value\n1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            u.ingest(path)

    def test_separator_digits_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "population,value\n1,1_000\n")
        with pytest.raises(DataFormatError, match="line 2"):
            u.ingest(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "population,value\n1,inf\n")
        with pytest.raises(DataFormatError, match="line 2"):
            u.ingest(path)

    def test_config_id_absent_from_data(self, tmp_path):
        data = write(tmp_path, "d.csv", "population,value\n1,2.0\n1,3.0\n")
        config = write(tmp_path, "c.json", json.dumps({"populations": [{"id": "9"}]}))
        with pytest.raises(ConfigurationError, match="9"):
            u.ingest(data, config)

    def test_data_id_absent_from_config_is_included(self, tmp_path):
        data = write(tmp_path, "d.csv", "population,value\na,1.0\nb,2.0\n")
        config = write(tmp_path, "c.json", json.dumps({"populations": [{"id": "a", "known_e": 0.5}]}))
        samples, _ = u.ingest(data, config)
        assert samples[0].known_e == 0.5
        assert samples[1].known_e is None

    def test_byte_order_mark_is_accepted(self, toothmarks, tmp_path):
        paths = []
        for original in u.dataset_paths("toothmarks"):
            path = tmp_path / original.name
            path.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
            paths.append(path)
        assert u.ingest(*paths) == toothmarks

    def test_values_kept_in_file_order(self, tmp_path):
        data = write(tmp_path, "d.csv", "population,value\nx,3.0\ny,1.0\nx,2.0\n")
        samples, _ = u.ingest(data)
        assert [s.id for s in samples] == ["x", "y"]
        assert samples[0].values == (3.0, 2.0)


class TestResolveCase:
    def test_auto_rules(self, example1, example2, example3):
        for fixture, expected in [
            (example1, ParameterCase.SIGMAS_UNKNOWN),
            (example2, ParameterCase.MEANS_UNKNOWN),
            (example3, ParameterCase.BOTH_UNKNOWN),
        ]:
            samples, config = fixture
            assert u.resolve_case(samples, config) is expected

    def test_mixed_parameters_rejected(self):
        samples = [
            PopulationSample("1", (1.0, 2.0), known_e=1.5),
            PopulationSample("2", (1.0, 2.0)),
        ]
        with pytest.raises(ConfigurationError):
            u.resolve_case(samples, RunConfig())

    def test_explicit_case_must_match_data(self, example1):
        samples, _ = example1
        with pytest.raises(ConfigurationError):
            u.resolve_case(samples, RunConfig(case=ParameterCase.MEANS_UNKNOWN))


class TestRunPipeline:
    def test_modes_truncate(self, toothmarks):
        samples, config = toothmarks
        fit_only = u.run_pipeline(samples, config, mode="fit")
        assert fit_only.homogeneity is None
        assert fit_only.common is None
        assert len(fit_only.populations) == 6

        homog = u.run_pipeline(samples, config, mode="homogeneity")
        assert homog.homogeneity is not None
        assert homog.common is None

        full = u.run_pipeline(samples, config, mode="pipeline")
        assert full.homogeneity is not None
        assert full.common is not None
        assert full.selected_group == ("3", "4", "5", "6")

    def test_mode_common_pools_explicit_group_without_homogeneity(self, toothmarks):
        samples, config = toothmarks
        from dataclasses import replace

        config = replace(config, group_selection=("3", "4", "5", "6"))
        report = u.run_pipeline(samples, config, mode="common")
        assert report.homogeneity is None
        assert report.selected_group == ("3", "4", "5", "6")
        assert report.common.theta0.e == pytest.approx(2.516, abs=2e-3)

    def test_unknown_mode(self, toothmarks):
        samples, config = toothmarks
        with pytest.raises(ValueError):
            u.run_pipeline(samples, config, mode="everything")

    def test_single_population_gets_warnings(self):
        samples = [PopulationSample("only", (1.0, 2.0, 3.0))]
        report = u.run_pipeline(samples, RunConfig())
        assert report.homogeneity is None
        assert report.selected_group == ("only",)
        assert report.common is not None
        assert any("single population" in w for w in report.warnings)

    def test_ambiguous_largest_group_is_an_error(self, tied_clique_samples):
        with pytest.raises(ConfigurationError, match="ambiguous"):
            u.run_pipeline(tied_clique_samples, RunConfig())

    def test_ambiguity_resolved_by_explicit_selection(self, tied_clique_samples):
        report = u.run_pipeline(tied_clique_samples, RunConfig(group_selection=("3", "4")))
        assert report.selected_group == ("3", "4")
        assert not report.common.decision.rejected

    def test_selection_outside_discovered_groups_warns(self, toothmarks):
        samples, config = toothmarks
        from dataclasses import replace

        config = replace(config, group_selection=("1", "2"))
        report = u.run_pipeline(samples, config)
        assert any("not one of the discovered" in w for w in report.warnings)

    def test_selection_with_unknown_id(self, toothmarks):
        samples, config = toothmarks
        from dataclasses import replace

        config = replace(config, group_selection=("1", "zzz"))
        with pytest.raises(ConfigurationError, match="zzz"):
            u.run_pipeline(samples, config)

    def test_theta0_override_is_used(self, toothmarks):
        samples, config = toothmarks
        from dataclasses import replace

        override = NormalUncertain(2.5, 0.1)
        config = replace(config, group_selection=("3", "4", "5", "6"), theta0_override=override)
        report = u.run_pipeline(samples, config)
        assert report.common.theta0 == override

    def test_each_population_is_fitted_once(self, toothmarks, monkeypatch):
        calls = []

        def counted(sample, alpha):
            calls.append(sample.id)
            return u.fit_and_verify(sample, alpha)

        monkeypatch.setattr(u.pipeline, "fit_and_verify", counted)
        samples, config = toothmarks
        u.run_pipeline(samples, config)
        assert calls == [s.id for s in samples]

    def test_self_test_failure_warns_but_keeps_population(self):
        # two extreme points inflate the fitted scale yet still fall outside
        # their own band, so the self-test rejects its own fit
        spread = tuple((k - 9) / 10.0 for k in range(18))
        samples = [
            PopulationSample("bad", (-100.0, 100.0) + spread, known_e=0.0),
            PopulationSample("ok", spread, known_e=0.0),
        ]
        report = u.run_pipeline(
            samples, RunConfig(case=ParameterCase.SIGMAS_UNKNOWN), mode="homogeneity"
        )
        assert any("self-test rejected" in w for w in report.warnings)
        assert report.homogeneity is not None
        assert len(report.homogeneity.pairwise) == 1


class TestReportSerialisation:
    @pytest.mark.parametrize(
        "fixture_name",
        ["example1_report", "example2_report", "example3_report", "toothmarks_report"],
    )
    def test_structured_round_trip(self, request, fixture_name):
        report = request.getfixturevalue(fixture_name)
        document = u.emit_report(report, "structured")
        assert u.parse_report(document) == report

    def test_round_trip_of_truncated_modes(self, toothmarks):
        samples, config = toothmarks
        for mode in ("fit", "homogeneity", "common"):
            report = u.run_pipeline(samples, config, mode=mode)
            assert u.parse_report(u.emit_report(report, "structured")) == report

    def test_schema_version_is_checked(self, toothmarks_report):
        obj = json.loads(u.emit_report(toothmarks_report, "structured"))
        assert obj["schema_version"] == 2
        for version in (1, 99):
            obj["schema_version"] = version
            with pytest.raises(DataFormatError, match="schema"):
                u.parse_report(json.dumps(obj))

    def test_document_holds_no_derived_values(self, toothmarks_report):
        document = u.emit_report(toothmarks_report, "structured")
        assert ", " not in document and ": " not in document
        obj = json.loads(document)
        assert list(obj) == [
            "schema_version", "mode", "case", "config", "populations",
            "homogeneity", "selected_group", "common_test", "warnings",
        ]
        assert list(obj["populations"][0]) == [
            "id", "known_e", "known_sigma", "values", "fit", "self_test_outliers",
        ]
        assert list(obj["homogeneity"]) == ["pairwise", "groups"]
        assert obj["homogeneity"]["pairwise"][0] == ["1", "2", [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7]]
        assert list(obj["common_test"]) == ["case", "theta0", "outliers", "diagnostics"]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda obj: {k: v for k, v in obj.items() if k != "populations"},
            lambda obj: [obj],
            lambda obj: {**obj, "homogeneity": {**obj["homogeneity"], "pairwise": [7]}},
            lambda obj: {
                **obj,
                "populations": [{**obj["populations"][0], "fit": {"e": 2.0, "sigma": -1}}]
                + obj["populations"][1:],
            },
            lambda obj: {**obj, "selected_group": ["3", "3", "4"]},
            lambda obj: {**obj, "common_test": {**obj["common_test"], "outliers": [99]}},
        ],
        ids=[
            "missing-populations",
            "list-root",
            "integer-pairwise-entry",
            "negative-scale",
            "repeated-selected-population",
            "outlier-position-out-of-range",
        ],
    )
    def test_malformed_document(self, toothmarks_report, corrupt):
        obj = corrupt(json.loads(u.emit_report(toothmarks_report, "structured")))
        with pytest.raises(DataFormatError):
            u.parse_report(json.dumps(obj))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, case, mode, data):
        pinned = {
            ParameterCase.MEANS_UNKNOWN: lambda k: {"known_sigma": 0.5 + k / 4},
            ParameterCase.SIGMAS_UNKNOWN: lambda k: {"known_e": k / 2},
            ParameterCase.BOTH_UNKNOWN: lambda k: {},
        }[case]
        values = st.lists(st.integers(-5000, 5000), min_size=2, max_size=15, unique=True)
        samples = [
            PopulationSample(f"p{k}", tuple(x / 1000 for x in data.draw(values)), **pinned(k))
            for k in range(data.draw(st.integers(1, 4)))
        ]
        group = tuple(s.id for s in samples if data.draw(st.booleans())) or (samples[0].id,)
        theta0 = data.draw(
            st.none()
            | st.builds(
                NormalUncertain,
                st.integers(-3000, 3000).map(lambda x: x / 1000),
                st.integers(100, 3000).map(lambda x: x / 1000),
            )
        )
        config = RunConfig(
            alpha=data.draw(st.sampled_from([0.01, 0.05, 0.1, 0.3])),
            case=case,
            group_selection=group,
            common_case=data.draw(st.sampled_from(list(CommonCase))),
            theta0_override=theta0,
        )
        report = u.run_pipeline(samples, config, mode=mode)
        document = u.emit_report(report, "structured")
        parsed = u.parse_report(document)
        assert parsed == report
        assert u.emit_report(parsed, "structured") == document

    def test_emission_is_deterministic(self, toothmarks_report):
        first = u.emit_report(toothmarks_report, "structured")
        second = u.emit_report(toothmarks_report, "structured")
        assert first == second

    def test_unknown_format(self, toothmarks_report):
        with pytest.raises(ValueError):
            u.emit_report(toothmarks_report, "yaml")

    def test_exported_data_re_ingests_identically(self, toothmarks, tmp_path):
        samples, _ = toothmarks
        report = u.run_pipeline(samples, RunConfig(), mode="fit")
        path = write(tmp_path, "echo.csv", u.export_data(report))
        again, _ = u.ingest(path)
        assert again == samples


class TestTextReport:
    def test_field_study_rendering(self, toothmarks_report):
        text = u.emit_report(toothmarks_report, "text")
        assert "2.883" in text and "0.069" in text
        assert "[2.745, 3.022]" in text
        assert "homogeneity hypothesis: rejected" in text
        assert "homogeneous groups: {3,4,5,6} {1} {2}" in text
        assert "cannot be rejected" in text
        assert "[2.348, 2.684]" in text

    def test_interval_matrix_shape(self, example1_report):
        text = u.emit_report(example1_report, "text")
        matrix_header = [line for line in text.splitlines() if line.startswith("data\\source")]
        assert len(matrix_header) == 1
        assert matrix_header[0].split()[1:] == ["1", "2", "3"]

    def test_rounding_is_half_away_from_zero(self):
        assert _fmt3(2.8835) == "2.884"
        assert _fmt3(-2.8835) == "-2.884"
        assert _fmt3(1.0005) == "1.001"
        assert _fmt3(2.0) == "2.000"


class TestPlotData:
    def test_row_counts_and_flags(self, example1_report, example1, tmp_path):
        samples, _ = example1
        path = tmp_path / "plot.csv"
        u.emit_plot_data(example1_report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "population,index,value,interval_source,lower,upper,is_outlier"
        assert len(rows) == 144 * 3
        flagged = [r for r in rows if r.endswith(",true")]
        # each reported outlier escapes the band of every parameter source
        assert len(flagged) == 18
        points = {(r.split(",")[0], r.split(",")[1]) for r in flagged}
        assert points == {("1", "3"), ("2", "7"), ("2", "33"), ("3", "11"), ("3", "13"), ("3", "32")}

    def test_field_study_row_count(self, toothmarks_report, toothmarks, tmp_path):
        samples, _ = toothmarks
        path = tmp_path / "plot.csv"
        u.emit_plot_data(toothmarks_report, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 38 * 6

    def test_single_population_single_source(self, tmp_path):
        samples = [PopulationSample("solo", (1.0, 2.0, 3.0, 4.0))]
        report = u.run_pipeline(samples, RunConfig(), mode="fit")
        path = tmp_path / "plot.csv"
        u.emit_plot_data(report, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 4

    def test_parsed_report_plots_the_same(self, toothmarks_report, tmp_path):
        parsed = u.parse_report(u.emit_report(toothmarks_report, "structured"))
        u.emit_plot_data(toothmarks_report, tmp_path / "a.csv")
        u.emit_plot_data(parsed, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
