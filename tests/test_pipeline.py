import csv
import io
import copy
import gc
import json
import math
import operator
import random
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import uncstat as u
from uncstat import (
    ConfigurationError,
    DataFormatError,
    NormalUncertain,
    NumericError,
    ParameterCase,
    PopulationConfig,
    PopulationSample,
    RunConfig,
    cross_interval,
)
from uncstat import multi, pipeline, testing
from uncstat.pipeline import MODES, _fmt3, _fmt_interval, config_from_dict, config_to_dict
from test_multi import CASE_PATTERN, PIN_PATTERNS


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
            populations=(PopulationConfig("a", known_e=1.0), PopulationConfig("b", known_e=2.0)),
            group_selection=("a", "b"),
            theta0_override=NormalUncertain(0.0, 2.0),
        )
        assert config_from_dict(config_to_dict(config)) == config
        assert list(config_to_dict(config)) == ["alpha", "populations", "group_selection", "theta0"]

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

    def test_duplicate_ids_are_listed_in_one_pass(self):
        ids = [str(k) for k in range(100_000)] + ["7", "99999", "7", "123"]
        with pytest.raises(ConfigurationError) as raised:
            RunConfig(populations=tuple(PopulationConfig(i) for i in ids))
        assert str(raised.value) == "duplicate population ids in config: ['123', '7', '99999']"

    # The parameter case and the pooled test's target follow from the pins.
    @pytest.mark.parametrize("key", ["case", "common_case"])
    @pytest.mark.parametrize("value", ["auto", "means-unknown", "sideways"])
    def test_case_settings_are_unknown_keys(self, key, value):
        with pytest.raises(ConfigurationError, match=rf"unknown config keys: \['{key}'\]"):
            config_from_dict({key: value})

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"alpha": 1.5})

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "1" + "0" * 400])
    def test_non_finite_pinned_parameter(self, text):
        document = '{"populations": [{"id": "1", "known_e": %s}]}' % text
        with pytest.raises(ConfigurationError):
            config_from_dict(json.loads(document))

    def test_integer_too_long_to_read(self, tmp_path):
        # Past Python's limit on converting digit strings to int, json raises
        # ValueError; versions without the limit read the number as infinite.
        path = write(tmp_path, "c.json", '{"alpha": %s}' % ("1" * 5000))
        with pytest.raises(ConfigurationError):
            u.load_config(path)

    def test_bad_theta0(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"theta0": {"e": 0.0}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"theta0": {"e": 0.0, "sigma": -1.0}})


def reference_ingest(data_path):
    """The data half of ingest as it read files before it streamed them:
    the whole text first, then every row held in one list with the line it
    ends on.  A record csv cannot read ends the list and is reported once the
    rows before it pass; so is the first NUL, at its line, on any version."""
    text = Path(data_path).read_text(encoding="utf-8-sig")
    rows, unreadable = [], None
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            rows.append((reader.line_num, row))
    except csv.Error as exc:
        unreadable = DataFormatError(f"line {reader.line_num}: {exc}")
    if not rows:
        raise unreadable or DataFormatError("data file is empty")
    nul_line = text.count("\n", 0, text.index("\0")) + 1 if "\0" in text else math.inf
    if rows[0][0] >= nul_line:
        raise DataFormatError("line 1: line contains NUL")
    header = [h.strip() for h in rows[0][1]]
    if header != ["population", "value"]:
        raise DataFormatError("line 1: expected header 'population,value'")

    by_id = {}
    for lineno, row in rows[1:]:
        if lineno >= nul_line:
            raise DataFormatError(f"line {nul_line}: line contains NUL")
        if not row:
            continue
        if len(row) != 2:
            raise DataFormatError(f"line {lineno}: expected 2 fields, found {len(row)}")
        pid = row[0].strip()
        if not pid:
            raise DataFormatError(f"line {lineno}: empty population id")
        raw = row[1].strip()
        try:
            if "_" in raw:
                raise ValueError
            value = float(raw)
        except ValueError:
            raise DataFormatError(f"line {lineno}: value {raw!r} is not numeric") from None
        if not math.isfinite(value):
            raise DataFormatError(f"line {lineno}: value must be finite, got {raw!r}")
        by_id.setdefault(pid, []).append(value)
    if unreadable:
        raise unreadable
    if not by_id:
        raise DataFormatError("data file contains a header but no rows")
    return [PopulationSample(id=pid, values=tuple(values)) for pid, values in by_id.items()]


_PADDING = st.sampled_from(["", " ", "  ", "\t"])
_IDS = st.sampled_from(["a", "b", "c d", "x,y", 'q"t', "a\nb", "a\r\nb"])
_PLAIN_IDS = st.sampled_from(["a", "b", "c d"])
_ODD_IDS = st.sampled_from(["", " ", "a\0", "\0\nb"])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
_ODD_VALUES = st.sampled_from(
    ["1_000", "inf", "-inf", "nan", "NaN", "1e400", "", "abc", "1.5.2", "+3", "\u0663", "1\0"]
)


def _field(draw, content, clean, plain):
    content = draw(_PADDING) + content + draw(_PADDING)
    if (not plain and draw(st.booleans())) or any(c in content for c in ',"\r\n'):
        content = '"%s"' % content.replace('"', '""')
        if not clean and draw(st.integers(0, 4)) == 0:
            content = " " + content  # the quote is then part of the field
    return content


@st.composite
def data_files(draw):
    """CSV text in the data layout with the edge cases the reader must keep:
    a byte order mark, blank lines, padding and CRLF line ends in every file;
    quoted fields with separators, quotes and line breaks in the files that
    are not drawn plain (plain files quote only the fields that need it);
    digit separators, non-finite and non-numeric values, wrong field counts,
    empty ids, NULs and bad headers in the files that are not drawn clean."""
    clean = draw(st.booleans())
    odd = st.just(False) if clean else st.integers(0, 5).map(lambda k: k == 0)
    plain = draw(st.booleans())
    headers = ["population,value", " population , value ", '"population","value"']
    lines = [draw(st.sampled_from(headers + ([] if clean else ["pop,val", "popul\0ation,value"])))]
    for _ in range(draw(st.integers(0 if not clean else 1, 10))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank"] + ([] if clean else ["one", "three"])))
        if kind == "blank":
            lines.append("")
            continue
        pid = draw(_ODD_IDS if draw(odd) else _PLAIN_IDS if plain else _IDS)
        value = draw(_ODD_VALUES if draw(odd) else _NUMBERS)
        if kind == "one":
            lines.append(_field(draw, value, clean, plain))
            continue
        fields = [_field(draw, pid, clean, plain), _field(draw, value, clean, plain)]
        if kind == "three":
            fields.append(_field(draw, draw(_NUMBERS), clean, plain))
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


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

    def test_invalid_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("population,value\na,1.0\n\u00e9,2.0\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="UTF-8"):
            u.ingest(path)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=data_files())
    @example(text="population,value\n ,\n")  # empty id and empty value: the id is named
    @example(text='population,value\r\n"a\r\nb",1.0\r\n')  # line break inside quotes
    @example(text="\ufeffpopulation,value\n\na,1_000\n")
    def test_streamed_ingest_matches_whole_file_reference(self, text, tmp_path):
        assert_ingest_matches_reference(text, tmp_path)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=data_files(), hint=st.integers(1, 64))
    # comma counts 1, 0 and 2: as many commas as lines, but misaligned columns
    @example(text="population,value\nx,1\n7\n8,2,3\n", hint=1000)
    @example(text='population,value\na,1\nb,2\n"c\nd",3\ne,4\n', hint=4)  # quoted line break
    @example(text="population,value\na,1\nb,2\n\nc,3\n", hint=4)  # blank line
    @example(text="population,value\na,1\nb,1_000\nc,3\n", hint=1000)
    @example(text="population,value\na,1\nb,inf\nc,3\n", hint=1000)
    @example(text="population,value\na,1\na,2", hint=1000)  # no newline at the end
    @example(text="population,value\n\ta\t,\t1\t\na ,2 \n", hint=1000)  # tab padding
    @example(text="population,value\na,1\na\0,2\nb,3\n", hint=1000)  # a NUL, on every version
    @example(text='population,value\na,1\n"a\nb\0\nc",2\n', hint=1000)  # a NUL inside a record
    def test_block_ingest_matches_whole_file_reference(self, text, hint, tmp_path, monkeypatch):
        """Blocks of a few characters: most files span many blocks, and csv
        takes over in the middle of a file."""
        monkeypatch.setattr(pipeline, "_BLOCK_HINT", hint)
        assert_ingest_matches_reference(text, tmp_path)

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_plain_blocks_skip_the_row_loop(self, tmp_path, monkeypatch, end):
        def no_rows(*args):
            raise AssertionError("a plain block went to csv")

        monkeypatch.setattr(pipeline, "_add_rows", no_rows)
        monkeypatch.setattr(pipeline, "_BLOCK_HINT", 10)
        rows = [f"{pid}, {k}.5" for pid in ("a", " b", "a") for k in range(7)]
        path = write(tmp_path, "plain.csv", "population,value\n" + "\n".join(rows) + end)
        samples, _ = u.ingest(path)
        assert [(s.id, s.size) for s in samples] == [("a", 14), ("b", 7)]
        assert samples[0].values[7:9] == (0.5, 1.5)


def assert_ingest_matches_reference(text, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_ingest(path)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as raised:
            u.ingest(path)
        assert str(raised.value) == str(exc)
    else:
        samples, config = u.ingest(path)
        assert samples == expected
        assert config == RunConfig()


class TestResolveCase:
    def test_auto_rules(self, example1, example2, example3):
        for fixture, expected in [
            (example1, ParameterCase.SIGMAS_UNKNOWN),
            (example2, ParameterCase.MEANS_UNKNOWN),
            (example3, ParameterCase.BOTH_UNKNOWN),
        ]:
            samples, _ = fixture
            assert u.resolve_case(samples) is expected

    def test_mixed_parameters_rejected(self):
        samples = [
            PopulationSample("1", (1.0, 2.0), known_e=1.5),
            PopulationSample("2", (1.0, 2.0)),
        ]
        with pytest.raises(
            ConfigurationError,
            match="population '1' pins the location, but population '2' pins nothing; "
            "every population must pin the same parameters, one of: the scale",
        ):
            u.resolve_case(samples)

    def test_pins_of_no_case_are_named(self):
        samples = [
            PopulationSample(pid, (1.0, 2.0), known_e=1.5, known_sigma=2.0) for pid in ("a", "b")
        ]
        with pytest.raises(ConfigurationError) as raised:
            u.resolve_case(samples)
        assert str(raised.value) == (
            "cannot infer the parameter case: population 'a' pins the location and the scale; "
            "every population must pin one of: the scale (means-unknown), "
            "the location (sigmas-unknown), nothing (both-unknown)"
        )

    @pytest.mark.parametrize("first", list(PIN_PATTERNS))
    @pytest.mark.parametrize("second", list(PIN_PATTERNS))
    def test_infers_the_one_case_all_samples_match(self, first, second):
        samples = [
            PopulationSample(pid, (1.0, 2.0, 4.0), **PIN_PATTERNS[pattern])
            for pid, pattern in (("1", first), ("2", second))
        ]
        matching = [case for case, pattern in CASE_PATTERN.items() if first == second == pattern]
        if matching:
            assert u.resolve_case(samples) is matching[0]
        else:
            with pytest.raises(ConfigurationError, match="cannot infer"):
                u.resolve_case(samples)


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

    def test_pin_contradicting_the_config_is_an_error(self, example1):
        samples, config = example1
        from dataclasses import replace

        assert config.populations[0] == PopulationConfig("1", known_e=4.5)
        samples = [replace(samples[0], known_e=14.5)] + samples[1:]
        message = r"population '1': its sample pins .*14\.5.*the config pins .*4\.5"
        with pytest.raises(ConfigurationError, match=message):
            u.run_pipeline(samples, config)

    def test_config_population_without_data_is_an_error(self, toothmarks):
        samples, config = toothmarks
        from dataclasses import replace

        config = replace(config, populations=(PopulationConfig("ghost", known_e=1.0),))
        with pytest.raises(ConfigurationError, match=r"absent from data: \['ghost'\]"):
            u.run_pipeline(samples, config)

    def test_report_config_lists_the_pinning_populations_in_sample_order(self):
        samples = [
            PopulationSample("b", (1.0, 2.0, 4.0), known_sigma=1.0),
            PopulationSample("a", (1.5, 2.5, 3.0), known_sigma=2.0),
        ]
        declared = RunConfig(populations=(PopulationConfig("a", known_sigma=2.0),))
        report = u.run_pipeline(samples, declared, mode="fit")
        pinned = (PopulationConfig("b", known_sigma=1.0), PopulationConfig("a", known_sigma=2.0))
        assert report.config == RunConfig(populations=pinned)
        unpinned = [PopulationSample(s.id, s.values) for s in samples]
        listed = RunConfig(populations=(PopulationConfig("a"), PopulationConfig("b")))
        assert u.run_pipeline(unpinned, listed, mode="fit").config == RunConfig()

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
        report = u.run_pipeline(samples, RunConfig(), mode="homogeneity")
        assert any("self-test rejected" in w for w in report.warnings)
        assert report.homogeneity is not None
        assert len(report.homogeneity.pairwise) == 1


# Values a mutation puts in place of another, one of each JSON type, and
# numbers at the edges of double precision.
_SWAPS = [None, True, False, 0, -1, 2.5, "1", "", [], {}, [1], {"e": 1}]
_EDGES = [0, -0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan, 10**400]


def _paths(node, path=()):
    """Every path of keys and indices below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def mutate(obj, data):
    """Change one drawn place of a report tree in place: drop a key or an
    item, swap in a value of another type, perturb a number, or reorder a
    list, such as the populations."""
    paths = list(_paths(obj))
    if not paths:
        return
    path = data.draw(st.sampled_from(paths), label="path")
    parent = reduce(operator.getitem, path[:-1], obj)
    key, value = path[-1], parent[path[-1]]
    kind = data.draw(st.sampled_from(["drop", "swap", "perturb", "reorder"]), label="kind")
    if kind == "drop":
        del parent[key]
    elif kind == "perturb" and type(value) in (int, float):
        shifted = [value + 1, value - 1, -value, value * 3]
        if type(value) is float:
            shifted.append(math.nextafter(value, math.inf))
        parent[key] = data.draw(st.sampled_from(shifted + _EDGES), label="number")
    elif kind == "reorder" and isinstance(parent, list):
        parent[:] = data.draw(st.permutations(parent), label="order")
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(_SWAPS), label="swap"))


def with_pins(obj, pins, ids=None):
    """A report tree whose config gives each of ``ids`` (every population by
    default) the pins ``pins``, and lists no other population."""
    ids = [p["id"] for p in obj["populations"]] if ids is None else ids
    listed = [{"id": pid, "known_e": None, "known_sigma": None, **pins} for pid in ids]
    return {**obj, "config": {**obj["config"], "populations": listed}}


class TestReportSerialisation:
    @pytest.mark.parametrize(
        "fixture_name",
        ["example1_report", "example2_report", "example3_report", "toothmarks_report"],
    )
    def test_structured_round_trip(self, request, fixture_name):
        report = request.getfixturevalue(fixture_name)
        document = u.emit_report(report, "structured")
        parsed = u.parse_report(document)
        assert parsed == report
        # The pairwise decisions are re-derived: each follows the definition.
        ids = [p.sample.id for p in parsed.populations]
        assert [(pw.i, pw.j) for pw in parsed.homogeneity.pairwise] == list(combinations(ids, 2))
        for pw in parsed.homogeneity.pairwise:
            for data, source, decision in (
                (pw.i, pw.j, pw.decision_i_vs_j),
                (pw.j, pw.i, pw.decision_j_vs_i),
            ):
                sample, fit = parsed.population(data).sample, parsed.population(source).fit
                band = cross_interval(sample, fit, parsed.alpha)
                assert decision == testing.test_against_interval(sample, band)

    # A library caller tests a reloaded report's populations again with
    # their own pins and the report's level, and no case.
    @pytest.mark.parametrize(
        "fixture_name",
        ["example1_report", "example2_report", "example3_report", "toothmarks_report"],
    )
    def test_homogeneity_test_of_the_reloaded_populations(self, request, fixture_name):
        parsed = u.parse_report(u.emit_report(request.getfixturevalue(fixture_name), "structured"))
        group = [(p.sample, p.fit) for p in parsed.populations]
        assert u.homogeneity_test(group, parsed.alpha) == parsed.homogeneity

    @pytest.mark.parametrize(
        "fixture_name",
        ["example1_report", "example2_report", "example3_report", "toothmarks_report"],
    )
    def test_reload_repeats_only_the_fits_of_the_traced_calls(
        self, request, fixture_name, monkeypatch
    ):
        # The benchmark's traced run counts these calls, by these module
        # attributes, as the work of a run and its reload.
        report = request.getfixturevalue(fixture_name)
        document = u.emit_report(report, "structured")
        calls = Counter()
        for module, name in [
            (pipeline, "fit_and_verify"),
            (multi, "pairwise_test"),
            (pipeline, "homogeneity_test"),
        ]:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        samples = [p.sample for p in report.populations]
        assert u.parse_report(document) == report
        assert calls == Counter(fit_and_verify=len(samples))
        calls.clear()
        u.run_pipeline(samples, report.config, report.mode)
        assert calls == Counter(
            fit_and_verify=len(samples),
            pairwise_test=math.comb(len(samples), 2),
            homogeneity_test=1,
        )

    def test_round_trip_of_truncated_modes(self, toothmarks):
        samples, config = toothmarks
        for mode in ("fit", "homogeneity", "common"):
            report = u.run_pipeline(samples, config, mode=mode)
            assert u.parse_report(u.emit_report(report, "structured")) == report

    def test_round_trip_of_overlapping_clusters(self):
        # 24 populations of 40 points, both parameters unknown, in 8 planted
        # clusters 0.1 apart: many bands cut a member's candidates at the
        # same place.
        rng = random.Random(7)
        samples = []
        for k in range(24):
            e, sigma = 10.0 + 0.1 * (k % 8) + rng.gauss(0.0, 0.03), 1.0 + rng.gauss(0.0, 0.05)
            samples.append(PopulationSample(f"p{k:02d}", [rng.gauss(e, sigma) for _ in range(40)]))
        config = RunConfig(alpha=0.05, group_selection=tuple(s.id for s in samples[::8]))
        report = u.run_pipeline(samples, config)
        document = u.emit_report(report, "structured")
        parsed = u.parse_report(document)
        assert parsed == report
        assert tuple(parsed.homogeneity.pairwise) == report.homogeneity.pairwise
        pairwise = parsed.homogeneity.pairwise
        assert 0 < sum(p.homogeneous for p in pairwise) < len(pairwise)

        # What a reload holds for its pairs: the same document without the
        # homogeneity stage holds everything else.  A table of every record
        # held about 350 bytes per pair here.
        obj = json.loads(document)
        obj["mode"] = "common"
        without = json.dumps(obj)

        def held(document):
            tracemalloc.start()
            try:
                kept = u.parse_report(document)
                return tracemalloc.get_traced_memory()[0], kept
            finally:
                tracemalloc.stop()

        assert (held(document)[0] - held(without)[0]) / len(pairwise) < 200

    def test_reload_builds_no_decision_until_its_pairs_are_read(self, toothmarks):
        samples, config = toothmarks
        document = u.emit_report(u.run_pipeline(samples, config, mode="homogeneity"), "structured")

        def alive():
            gc.collect()
            return sum(type(o) is testing.TestDecision for o in gc.get_objects())

        before = alive()
        parsed = u.parse_report(document)
        assert parsed.homogeneity.rejected and len(parsed.homogeneity.groups) == 3
        assert alive() - before == len(samples)  # the self-tests
        pairs = tuple(parsed.homogeneity.pairwise)
        assert alive() - before == len(samples) + 2 * len(pairs)
        del pairs
        assert alive() - before == len(samples)

    def test_schema_version_is_checked(self, toothmarks_report):
        obj = json.loads(u.emit_report(toothmarks_report, "structured"))
        assert obj["schema_version"] == 7
        obj["config"].update(case="auto", common_case="auto")  # as schema 6 wrote them
        for version in (1, 2, 3, 4, 5, 6, 99):
            obj["schema_version"] = version
            with pytest.raises(DataFormatError, match=f"unsupported report schema version {version};"):
                u.parse_report(json.dumps(obj))

    def test_integer_too_long_to_read_is_a_format_error(self, toothmarks_report):
        document = u.emit_report(toothmarks_report, "structured")
        document = document.replace('"alpha":0.05', '"alpha":' + "1" * 5000)
        with pytest.raises(DataFormatError):
            u.parse_report(document)

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(DataFormatError, match="nests too deeply"):
            u.parse_report("[" * 100_000)

    def test_document_holds_no_derived_values(self, toothmarks_report):
        document = u.emit_report(toothmarks_report, "structured")
        assert ", " not in document and ": " not in document
        obj = json.loads(document)
        assert list(obj) == ["schema_version", "mode", "config", "populations"]
        assert list(obj["populations"][0]) == ["id", "values"]
        assert list(obj["config"]) == ["alpha", "populations", "group_selection", "theta0"]
        assert obj["config"]["populations"] == []

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(
                lambda obj: {k: v for k, v in obj.items() if k != "populations"},
                "report must be a mapping with keys",
                id="missing-populations",
            ),
            pytest.param(lambda obj: [obj], "root must be a key/value mapping", id="list-root"),
            pytest.param(
                lambda obj: {
                    **obj, "homogeneity": {"groups": [["3", "4", "5", "6"], ["1"], ["2"]]}
                },
                "report must be a mapping with keys",
                id="stored-groups",
            ),
            pytest.param(
                lambda obj: with_pins(obj, {"known_sigma": -1.0}),
                "known scale must be > 0",
                id="negative-known-scale",
            ),
            pytest.param(
                lambda obj: {
                    **obj, "config": {**obj["config"], "group_selection": ["3", "3", "4"]}
                },
                "repeats a population id",
                id="repeated-selected-population",
            ),
            pytest.param(
                lambda obj: {
                    **obj,
                    "populations": [
                        {**p, "values": [str(v) for v in p["values"]]}
                        for p in obj["populations"]
                    ],
                },
                "population '1': values must be int or float, got str",
                id="string-values",
            ),
            pytest.param(
                lambda obj: {
                    **obj,
                    "populations": [{**obj["populations"][0], "values": [True] * 6}]
                    + obj["populations"][1:],
                },
                "population '1': values must be int or float, got bool",
                id="boolean-values",
            ),
            pytest.param(
                lambda obj: with_pins(obj, {"known_sigma": "0.1"}),
                "known_sigma must be a number",
                id="string-known-scale",
            ),
            pytest.param(
                lambda obj: {
                    **obj, "config": {**obj["config"], "theta0": {"e": 2.5, "sigma": True}}
                },
                "theta0.sigma must be a number",
                id="boolean-reference-scale",
            ),
            pytest.param(
                lambda obj: {
                    **with_pins(obj, {"known_sigma": 1e-12}),
                    "populations": [
                        {**p, "values": [v + 1e9 for v in p["values"]]}
                        for p in obj["populations"]
                    ],
                },
                "NumericError: population '1': acceptance band .* is empty",
                id="empty-self-test-band",
            ),
            pytest.param(
                lambda obj: {
                    **obj,
                    "config": {
                        **obj["config"],
                        "populations": [
                            {"id": p["id"], "known_e": None, "known_sigma": 1e-12 if k else 1.0}
                            for k, p in enumerate(obj["populations"])
                        ],
                    },
                    "populations": [
                        {**p, "values": [v + 1e9 * (k == 0) for v in p["values"]]}
                        for k, p in enumerate(obj["populations"])
                    ],
                },
                "NumericError: population '2' against the fit of '1': acceptance band .* is empty",
                id="empty-cross-band",
            ),
            pytest.param(
                lambda obj: {
                    **obj,
                    "populations": [{**obj["populations"][0], "known_e": 14.5}]
                    + obj["populations"][1:],
                },
                "population entry must be a mapping with keys",
                id="pin-in-population-entry",
            ),
            pytest.param(
                lambda obj: with_pins(obj, {"known_e": 1.0}, ids=["ghost"]),
                r"absent from data: \['ghost'\]",
                id="ghost-in-config",
            ),
            pytest.param(
                lambda obj: with_pins(obj, {}, ids=["1"]),
                "config.populations must list each population that pins a parameter",
                id="unpinned-population-in-config",
            ),
            pytest.param(
                lambda obj: {
                    **obj, "config": {**obj["config"], "theta0": {"e": 2.5, "sigma": 1e308}}
                },
                "NumericError: acceptance band .* is not finite",
                id="infinite-pooled-band",
            ),
            pytest.param(
                lambda obj: {**obj, "config": {**obj["config"], "case": "both-unknown"}},
                r"unknown config keys: \['case'\]",
                id="case-in-config",
            ),
            pytest.param(
                lambda obj: {**obj, "config": {**obj["config"], "common_case": "auto"}},
                r"unknown config keys: \['common_case'\]",
                id="common-case-in-config",
            ),
            pytest.param(
                lambda obj: {
                    **obj,
                    "populations": [obj["populations"][0], {**obj["populations"][1], "id": "1"}]
                    + obj["populations"][2:],
                },
                "population ids must be unique",
                id="duplicate-population-id",
            ),
            pytest.param(
                lambda obj: {**obj, "mode": "everything"},
                "mode must be one of",
                id="unknown-mode",
            ),
            pytest.param(
                lambda obj: {**obj, "populations": []},
                "at least one population",
                id="no-populations",
            ),
            pytest.param(
                lambda obj: {
                    **obj,
                    "populations": [{**obj["populations"][0], "id": 1}] + obj["populations"][1:],
                },
                "population id must be a string",
                id="integer-population-id",
            ),
            pytest.param(
                lambda obj: {
                    **obj,
                    "populations": [
                        {**obj["populations"][0], "fit": {"e": 2.883, "sigma": 0.069}}
                    ]
                    + obj["populations"][1:],
                },
                "population entry must be a mapping with keys",
                id="unknown-population-key",
            ),
            pytest.param(
                lambda obj: {**obj, "warnings": []},
                "report must be a mapping with keys",
                id="unknown-root-key",
            ),
        ],
    )
    def test_malformed_document(self, toothmarks_report, corrupt, message):
        obj = corrupt(json.loads(u.emit_report(toothmarks_report, "structured")))
        with pytest.raises(DataFormatError, match=message):
            u.parse_report(json.dumps(obj))

    def test_config_lists_the_pins_in_sample_order(self, example1_report):
        obj = json.loads(u.emit_report(example1_report, "structured"))
        assert obj["config"]["populations"] == [
            {"id": pid, "known_e": e, "known_sigma": None}
            for pid, e in [("1", 4.5), ("2", 5.0), ("3", 5.5)]
        ]
        obj["config"]["populations"].reverse()
        with pytest.raises(DataFormatError, match="in sample order"):
            u.parse_report(json.dumps(obj))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, case, mode, data):
        pinned = {
            ParameterCase.MEANS_UNKNOWN: ("known_sigma",),
            ParameterCase.SIGMAS_UNKNOWN: ("known_e",),
            ParameterCase.BOTH_UNKNOWN: (),
        }[case]
        pins = (
            st.integers(-2, 3)
            | st.integers(-2000, 3000).map(lambda x: x / 1000)
            | st.sampled_from([True, "0.5", 10**400, math.inf, math.nan])
        )
        values = st.lists(st.integers(-5000, 5000), min_size=2, max_size=15, unique=True)
        try:
            samples = [
                PopulationSample(
                    f"p{k}",
                    tuple(x / 1000 for x in data.draw(values)),
                    **{name: data.draw(pins, label=name) for name in pinned},
                )
                for k in range(data.draw(st.integers(1, 4)))
            ]
        except (TypeError, ValueError):
            return  # every sample that constructs must round-trip
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
            group_selection=group,
            theta0_override=theta0,
        )
        report = u.run_pipeline(samples, config, mode=mode)
        document = u.emit_report(report, "structured")
        parsed = u.parse_report(document)
        assert parsed == report
        assert u.emit_report(parsed, "structured") == document

    @pytest.mark.parametrize(
        "fixture_name",
        ["example1_report", "example2_report", "example3_report", "toothmarks_report"],
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_document_is_a_report_or_a_format_error(self, request, fixture_name, data):
        report = request.getfixturevalue(fixture_name)
        obj = json.loads(u.emit_report(report, "structured"))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            mutate(obj, data)
        try:
            parsed = u.parse_report(json.dumps(obj))
        except DataFormatError:
            return
        assert isinstance(parsed, u.RunReport)

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

    # Both-unknown bands depend on the source alone, so the n x n matrix and
    # the n self-tests hold n distinct intervals, each formatted once.  With a
    # scale pinned per population every cell's band differs, and the bounded
    # cache may format a self-test's band again on the diagonal.
    @pytest.mark.parametrize("scales", [False, True])
    def test_each_distinct_interval_is_formatted_once(self, scales, monkeypatch):
        rng = random.Random(7)
        n = 32
        samples = [
            PopulationSample(
                f"p{k}",
                tuple(rng.uniform(-1.0, 1.0) + k / 20 for _ in range(4)),
                known_sigma=1.0 + k / 8 if scales else None,
            )
            for k in range(n)
        ]
        report = u.run_pipeline(samples, RunConfig(), mode="homogeneity")
        calls = Counter()
        fmt_interval = pipeline._fmt_interval

        def counting(lower, upper):
            calls[lower, upper] += 1
            return fmt_interval(lower, upper)

        monkeypatch.setattr(pipeline, "_fmt_interval", counting)
        text = u.emit_report(report, "text")
        assert len(calls) == (n * n if scales else n)
        if not scales:
            assert set(calls.values()) == {1}
        # The same render with every cell formatted: n self-tests, n * n cells.
        calls.clear()
        monkeypatch.setattr(pipeline, "lru_cache", lambda maxsize: lambda fn: fn)
        assert u.emit_report(report, "text") == text
        assert sum(calls.values()) == n + n * n

    def test_rounding_is_half_away_from_zero(self):
        assert _fmt3(2.8835) == "2.884"
        assert _fmt3(-2.8835) == "-2.884"
        assert _fmt3(1.0005) == "1.001"
        assert _fmt3(2.0) == "2.000"

    def test_every_finite_double_renders(self):
        assert _fmt3(1e30) == "1" + "0" * 30 + ".000"
        assert _fmt3(-3.5e30) == "-35" + "0" * 29 + ".000"
        assert _fmt3(1.7976931348623157e308) == "17976931348623157" + "0" * 292 + ".000"
        assert _fmt3(5e-324) == "0.000"


def reference_render_text(report):
    """The text report built whole, as every line before the join: the plain
    definition the streamed pieces are checked against."""
    interval_text = _fmt_interval

    def table(rows):
        widths = [max(map(len, column)) for column in zip(*rows)]
        return ["  ".join(map(str.ljust, r, widths)).rstrip() for r in rows]

    def label(ids):
        return "{%s}" % ",".join(ids)

    lines = []
    title = "multi-population uncertainty test report"
    lines += [title, "=" * len(title), ""]
    lines += [
        f"mode: {report.mode}",
        f"significance level: {report.alpha:g}",
        f"parameter case: {report.case.value}",
        "",
    ]
    lines += ["population fits and self-tests", "-" * 30]
    rows = [["id", "m", "e", "sigma", "acceptance interval", "outliers", "self-test"]]
    for p in report.populations:
        rows.append(
            [
                p.sample.id,
                str(p.sample.size),
                _fmt3(p.fit.e),
                _fmt3(p.fit.sigma),
                interval_text(p.self_test.interval.lower, p.self_test.interval.upper),
                str(p.self_test.outlier_count),
                p.self_test.verdict,
            ]
        )
    lines += table(rows)
    lines.append("")

    if report.homogeneity is not None:
        hom = report.homogeneity
        ordered = [p.sample.id for p in report.populations]
        intervals = {}
        for p in report.populations:
            intervals[(p.sample.id, p.sample.id)] = p.self_test.interval
        for pw in hom.pairwise:
            intervals[(pw.i, pw.j)] = pw.decision_i_vs_j.interval
            intervals[(pw.j, pw.i)] = pw.decision_j_vs_i.interval
        lines += ["acceptance intervals (data rows vs parameter sources)", "-" * 53]
        rows = [["data\\source"] + ordered]
        for di in ordered:
            rows.append(
                [di] + [interval_text(intervals[di, pj].lower, intervals[di, pj].upper)
                        for pj in ordered]
            )
        lines += table(rows)
        lines.append("")

        lines += ["pairwise equality tests", "-" * 23]
        rows = [["pair", "outliers i|j", "outliers j|i", "equality"]]
        for pw in hom.pairwise:
            rows.append(
                [
                    f"{pw.i}~{pw.j}",
                    f"{pw.decision_i_vs_j.outlier_count}/{pw.decision_i_vs_j.threshold}",
                    f"{pw.decision_j_vs_i.outlier_count}/{pw.decision_j_vs_i.threshold}",
                    "cannot be rejected" if pw.homogeneous else "rejected",
                ]
            )
        lines += table(rows)
        lines.append("")
        lines.append(
            "homogeneity hypothesis: " + ("rejected" if hom.rejected else "cannot be rejected")
        )
        lines.append("homogeneous groups: " + " ".join(label(sorted(g)) for g in hom.groups))
        lines.append("")

    if report.common is not None:
        c = report.common
        lines += ["pooled test on selected group", "-" * 29]
        lines.append(f"group: {label(report.selected_group)}")
        lines.append(f"tested parameter: {c.case.value}")
        lines.append(f"reference: e={_fmt3(c.theta0.e)} sigma={_fmt3(c.theta0.sigma)}")
        lines.append(
            "acceptance interval: "
            + interval_text(c.decision.interval.lower, c.decision.interval.upper)
        )
        outliers = ", ".join(str(i) for i in c.decision.outlier_indices) or "none"
        lines.append(
            f"outliers: {c.decision.outlier_count} of {c.decision.sample_size} "
            f"(threshold {c.decision.threshold}) at merged positions: {outliers}"
        )
        if c.decision.outlier_indices:
            origins = ", ".join(f"{pid}[{idx}]" for pid, idx in c.outlier_origins)
            lines.append(f"outlier origins: {origins}")
        lines.append(f"hypothesis: {c.decision.verdict}")
        lines.append("")

    lines += ["warnings", "-" * 8]
    if report.warnings:
        lines += [f"- {w}" for w in report.warnings]
    else:
        lines.append("(none)")
    return "\n".join(lines) + "\n"


# Ids a CSV writer must quote, ids with padding and ids beyond ASCII.
_REPORT_IDS = st.sampled_from(
    ["a", "b", "c d", "x,y", 'q"t', "a\nb", " s ", "b ", "é", "ünï ü",
     "日本", "long-identifier-of-a-population"]
)


@st.composite
def reports(draw):
    """Reports of every mode and parameter case, with pins, fixed
    references, group selections and the warnings that go with them."""
    case = draw(st.sampled_from(list(ParameterCase)))
    pin = {
        ParameterCase.MEANS_UNKNOWN: "known_sigma",
        ParameterCase.SIGMAS_UNKNOWN: "known_e",
        ParameterCase.BOTH_UNKNOWN: None,
    }[case]
    ids = draw(st.lists(_REPORT_IDS, min_size=1, max_size=6, unique=True))
    values = st.lists(st.integers(-5000, 5000), min_size=2, max_size=12, unique=True)
    samples = [
        PopulationSample(
            pid,
            tuple(k * draw(st.sampled_from([0, 1, 4])) + x / 1000 for x in draw(values)),
            **({pin: draw(st.integers(100, 3000)) / 1000} if pin else {}),
        )
        for k, pid in enumerate(ids)
    ]
    group = draw(st.none() | st.lists(st.sampled_from(ids), min_size=1, unique=True))
    theta0 = draw(
        st.none()
        | st.builds(
            NormalUncertain,
            st.integers(-3000, 3000).map(lambda x: x / 1000),
            st.integers(100, 3000).map(lambda x: x / 1000),
        )
    )
    config = RunConfig(
        alpha=draw(st.sampled_from([0.01, 0.05, 0.1, 0.3])),
        group_selection=None if group is None else tuple(group),
        theta0_override=theta0,
    )
    try:
        return u.run_pipeline(samples, config, mode=draw(st.sampled_from(MODES)))
    except (ConfigurationError, NumericError):
        assume(False)


def write_report(report, fmt, path):
    """Write a report to a file as the command line does: piece by piece."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pipeline._report_pieces(report, fmt))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReportPieces:
    @given(report=reports())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_pieces_join_to_the_whole_documents(self, report):
        structured = json.dumps(pipeline.report_to_dict(report), separators=(",", ":")) + "\n"
        assert "".join(pipeline._report_pieces(report, "structured")) == structured
        assert u.emit_report(report, "structured") == structured
        text = reference_render_text(report)
        assert "".join(pipeline._report_pieces(report, "text")) == text
        assert u.emit_report(report, "text") == text

    def test_unknown_format_fails_before_any_piece(self, toothmarks_report):
        with pytest.raises(ValueError, match="'yaml'"):
            pipeline._report_pieces(toothmarks_report, "yaml")

    def test_structured_memory_does_not_grow_with_the_populations(self, tmp_path):
        rng = random.Random(5)

        def peak(n):
            samples = [
                PopulationSample(f"p{k}", tuple(rng.uniform(1.0, 2.0) for _ in range(2000)))
                for k in range(n)
            ]
            report = u.run_pipeline(samples, RunConfig(), mode="fit")
            return traced_peak(lambda: write_report(report, "structured", tmp_path / "r.json"))

        # The whole document, encoded at once, made the peak grow with n.
        assert peak(40) <= 1.1 * peak(4)

    def test_text_memory_stays_below_the_document(self, tmp_path):
        rng = random.Random(1)
        samples = [
            PopulationSample(f"p{k}", (rng.uniform(-1, 1), rng.uniform(-1, 1)), known_sigma=100.0)
            for k in range(80)
        ]
        report = u.run_pipeline(samples, RunConfig(), mode="homogeneity")
        path = tmp_path / "r.txt"
        peak = traced_peak(lambda: write_report(report, "text", path))
        # Every line held before the join made the peak six times the size.
        assert peak < path.stat().st_size / 2


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

    def test_memory_does_not_grow_with_the_rows(self, example1, tmp_path):
        samples, config = example1
        from dataclasses import replace

        def peak(repeat):
            grown = [replace(s, values=s.values * repeat) for s in samples]
            report = u.run_pipeline(grown, config, mode="fit")
            tracemalloc.start()
            try:
                u.emit_plot_data(report, tmp_path / "plot.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Rows held in a list before writing made the peak five times larger.
        assert peak(10) <= 1.1 * peak(1)

    def test_rows_match_the_csv_writer_for_any_id(self, tmp_path):
        ids = ["x,y", 'q"t', "a\nb", "c\rd", "c\r\nd", " s ", "1"]
        samples = [PopulationSample(pid, (k, k + 1.5, k + 2.25)) for k, pid in enumerate(ids)]
        report = u.run_pipeline(samples, RunConfig(), mode="fit")
        u.emit_plot_data(report, tmp_path / "plot.csv")
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["population", "index", "value", "interval_source", "lower", "upper",
                         "is_outlier"])
        bands = multi.CrossTests(report.alpha)
        for data in report.populations:
            for source in report.populations:
                band = bands.band(data.sample, source.fit)
                for idx, v in enumerate(data.sample.values, start=1):
                    outside = v < band.lower or v > band.upper
                    writer.writerow([data.sample.id, idx, repr(v), source.sample.id,
                                     repr(band.lower), repr(band.upper), str(outside).lower()])
        assert (tmp_path / "plot.csv").read_bytes() == reference.getvalue().encode("utf-8")

    def test_each_id_is_quoted_once(self, tmp_path, monkeypatch):
        ids = ["x,y", 'q"t', "1"]
        samples = [PopulationSample(pid, (k, k + 1.5, k + 2.25)) for k, pid in enumerate(ids)]
        report = u.run_pipeline(samples, RunConfig(), mode="fit")
        quoted, quote = [], pipeline._csv_field
        monkeypatch.setattr(pipeline, "_csv_field", lambda text: quoted.append(text) or quote(text))
        u.emit_plot_data(report, tmp_path / "plot.csv")
        assert quoted == ids
