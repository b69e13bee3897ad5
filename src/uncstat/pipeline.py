"""End-to-end pipeline: ingest data and configuration, fit and self-verify
every population, test homogeneity, discover homogeneous groups, and run the
pooled test on a selected group.  Reports serialize to a stable, versioned
structure that stores a run's inputs, from which :func:`parse_report` runs
the same stages again, and render as plain-text tables.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .errors import ConfigurationError, DataFormatError
from .multi import (
    CrossTests,
    FittedGroup,
    HomogeneityResult,
    ParameterCase,
    _groups,
    homogeneity_test,
    resolve_case,
)
from .pooling import CommonCase, CommonTestResult, common_test
from .testing import PopulationSample, TestDecision, band_quantiles, fit_and_verify
from .udist import NormalUncertain

__all__ = [
    "PopulationConfig",
    "RunConfig",
    "PopulationReport",
    "RunReport",
    "MODES",
    "SCHEMA_VERSION",
    "load_config",
    "ingest",
    "resolve_case",
    "run_pipeline",
    "emit_report",
    "parse_report",
    "export_data",
    "emit_plot_data",
]

SCHEMA_VERSION = 7
MODES = ("pipeline", "fit", "homogeneity", "common")

_AUTO_COMMON = {
    ParameterCase.MEANS_UNKNOWN: CommonCase.MEAN,
    ParameterCase.SIGMAS_UNKNOWN: CommonCase.SIGMA,
    ParameterCase.BOTH_UNKNOWN: CommonCase.BOTH,
}


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PopulationConfig:
    """Declared identity and optional pinned parameters of one population."""

    id: str
    known_e: float | None = None
    known_sigma: float | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("population id must be non-empty")
        if self.known_sigma is not None and not self.known_sigma > 0.0:
            raise ConfigurationError(
                f"population {self.id!r}: known scale must be > 0, got {self.known_sigma!r}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the data itself."""

    alpha: float = 0.05
    populations: tuple[PopulationConfig, ...] = ()
    group_selection: tuple[str, ...] | None = None
    theta0_override: NormalUncertain | None = None

    def __post_init__(self) -> None:
        band_quantiles(self.alpha)
        ids = [p.id for p in self.populations]
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise ConfigurationError(f"duplicate population ids in config: {dupes}")
        if self.group_selection is not None:
            if not self.group_selection:
                raise ConfigurationError("group selection must name at least one population")
            if len(set(self.group_selection)) != len(self.group_selection):
                raise ConfigurationError("group selection repeats a population id")


def _number(value: Any, what: str) -> float:
    """A finite number as a float; JSON also reads Infinity, NaN and huge integers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    return number


def config_from_dict(obj: Any) -> RunConfig:
    """Build a :class:`RunConfig` from a parsed key/value tree, strictly."""
    if not isinstance(obj, dict):
        raise ConfigurationError("config root must be a key/value mapping")
    allowed = {"alpha", "populations", "group_selection", "theta0"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")

    entries = obj.get("populations", [])
    if not isinstance(entries, list):
        raise ConfigurationError("populations must be a list")
    populations = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigurationError("each population entry must be a mapping")
        extra = sorted(set(entry) - {"id", "known_e", "known_sigma"})
        if extra:
            raise ConfigurationError(f"unknown population keys: {extra}")
        if "id" not in entry:
            raise ConfigurationError("population entry lacks an id")
        if not isinstance(entry["id"], str):
            raise ConfigurationError(f"population id must be a string, got {entry['id']!r}")
        pins = {k: _number(v, k) for k, v in entry.items() if k != "id" and v is not None}
        populations.append(PopulationConfig(id=entry["id"], **pins))

    theta0 = None
    if obj.get("theta0") is not None:
        raw = obj["theta0"]
        if not isinstance(raw, dict) or set(raw) != {"e", "sigma"}:
            raise ConfigurationError("theta0 must be a mapping with keys 'e' and 'sigma'")
        try:
            theta0 = NormalUncertain(_number(raw["e"], "theta0.e"), _number(raw["sigma"], "theta0.sigma"))
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    group = obj.get("group_selection")
    if group is not None and not (
        isinstance(group, list) and all(isinstance(g, str) for g in group)
    ):
        raise ConfigurationError(f"group_selection must be a list of population ids, got {group!r}")
    try:
        return RunConfig(
            alpha=_number(obj.get("alpha", 0.05), "alpha"),
            populations=tuple(populations),
            group_selection=None if group is None else tuple(group),
            theta0_override=theta0,
        )
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def config_to_dict(config: RunConfig) -> dict[str, Any]:
    return {
        "alpha": config.alpha,
        "populations": [
            {"id": p.id, "known_e": p.known_e, "known_sigma": p.known_sigma}
            for p in config.populations
        ],
        "group_selection": None
        if config.group_selection is None
        else list(config.group_selection),
        "theta0": None
        if config.theta0_override is None
        else {"e": config.theta0_override.e, "sigma": config.theta0_override.sigma},
    }


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file into a validated :class:`RunConfig`."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config is not UTF-8 text: {exc.reason}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise ConfigurationError(f"config holds a number too long to read: {exc}") from None
    except RecursionError:
        raise ConfigurationError("config nests too deeply to read") from None
    return config_from_dict(obj)


# --------------------------------------------------------------------------
# ingestion


# Characters of whole lines read per block; far below the default csv field
# limit, so an ordinary block is never handed to csv for its length alone.
_BLOCK_HINT = 1 << 16


def _read_columns(data_path: str | Path) -> dict[str, list[float]]:
    """Each population's values in file order, every record checked.

    The file is read in blocks of whole lines, so no list of every row is
    held.  Plain blocks are converted a column at a time; from the first
    block that is not plain on, ``csv.reader`` reads the rest of the file
    record by record.  The default newline mode leaves only ``"\\n"`` in the
    text, and reads a line break inside a quoted field as ``"\\n"``.
    """
    by_id: dict[str, list[float]] = {}
    with open(data_path, encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:
            raise DataFormatError(f"line 1: {exc}") from None
        if header is None:
            raise DataFormatError("data file is empty")
        if "\0" in "".join(header):  # as csv reports it on the versions that reject it
            raise DataFormatError("line 1: line contains NUL")
        if [h.strip() for h in header] != ["population", "value"]:
            raise DataFormatError("line 1: expected header 'population,value'")
        lineno = 2
        while lines := fh.readlines(_BLOCK_HINT):
            if not _add_plain_block(lines, by_id):
                _add_rows(csv.reader(chain(lines, fh)), lineno, by_id)
                break
            lineno += len(lines)
    return by_id


def _add_plain_block(lines: list[str], by_id: dict[str, list[float]]) -> bool:
    """Add a block of lines that csv would read as one ``id,value`` record
    each, column by column.

    A block is plain when it holds no quote, no NUL (which csv rejects on
    some versions), no more characters than csv's field limit, and exactly
    one comma on every line.  Returns False, having added nothing, when the
    block is not plain or any record in it fails a check: csv then reads it
    again and names the line.
    """
    text = "".join(lines)
    n = len(lines)
    if (
        '"' in text
        or "\0" in text
        or len(text) > csv.field_size_limit()
        or text.count(",") != n
        or not all(map(operator.contains, lines, repeat(",")))
    ):
        return False
    fields = text.replace("\n", ",").split(",")
    ids = list(map(str.strip, fields[0 : 2 * n : 2]))
    raw = fields[1 : 2 * n : 2]
    if "" in ids or "_" in "".join(raw):
        return False
    try:
        values = list(map(float, raw))  # float() strips no more than str.strip()
    except ValueError:
        return False
    if not all(map(math.isfinite, values)):
        return False
    starts = [0, *compress(count(1), map(operator.ne, ids[1:], ids)), n]
    for start, end in zip(starts, starts[1:]):
        by_id.setdefault(ids[start], []).extend(values[start:end])
    return True


def _add_rows(reader: Any, first: int, by_id: dict[str, list[float]]) -> None:
    """Check and add each record ``reader``, a :func:`csv.reader` whose first
    line is line ``first`` of the file, reads.

    Errors name the line a record ends on, or the line of a NUL, which csv
    rejects on some versions and no version reads into a population.
    """
    offset = first - 1
    try:
        for row in reader:
            lineno = offset + reader.line_num
            text = ",".join(row)  # a record's line breaks are in its quoted fields
            if "\0" in text:
                nul_line = lineno - text.count("\n", text.index("\0"))
                raise DataFormatError(f"line {nul_line}: line contains NUL")
            if len(row) != 2:
                if not row:
                    continue  # tolerate blank lines
                raise DataFormatError(f"line {lineno}: expected 2 fields, found {len(row)}")
            pid = row[0].strip()
            if not pid:
                raise DataFormatError(f"line {lineno}: empty population id")
            raw = row[1].strip()
            try:
                if "_" in raw:  # float() would accept 1_000; the format does not
                    raise ValueError
                value = float(raw)
            except ValueError:
                raise DataFormatError(f"line {lineno}: value {raw!r} is not numeric") from None
            if not math.isfinite(value):
                raise DataFormatError(f"line {lineno}: value must be finite, got {raw!r}")
            values = by_id.get(pid)
            if values is None:
                values = by_id[pid] = []
            values.append(value)
    except csv.Error as exc:  # a field over the limit, or a NUL on some versions
        raise DataFormatError(f"line {offset + reader.line_num}: {exc}") from None


_Pins = tuple[float | None, float | None]


def _join(
    config: RunConfig, ids: Sequence[str], pins: Sequence[_Pins] | None = None
) -> list[_Pins]:
    """The one rule that joins a run's config to its data: every declared id
    has data, and a declared population's pins are its sample's ``pins``,
    which are taken from the config when not given.  Returns each id's pins.
    """
    declared = {p.id: (p.known_e, p.known_sigma) for p in config.populations}
    missing = sorted(set(declared).difference(ids))
    if missing:
        raise ConfigurationError(f"populations declared in config but absent from data: {missing}")
    pins = [declared.get(pid, (None, None)) for pid in ids] if pins is None else pins
    for pid, own in zip(ids, pins):
        if declared.get(pid, own) != own:
            raise ConfigurationError(
                f"population {pid!r}: its sample pins (known_e, known_sigma) = {own!r}, "
                f"but the config pins {declared[pid]!r}"
            )
    return list(pins)


def ingest(
    data_path: str | Path, config_path: str | Path | None = None
) -> tuple[list[PopulationSample], RunConfig]:
    """Read long-format data (``population,value`` rows) plus optional config.

    Returns one sample per distinct population id, values in file order,
    populations ordered by first appearance.  Ids declared in the config but
    absent from the data are an error; ids present only in the data are
    included with no pinned parameters.
    """
    config = load_config(config_path) if config_path is not None else RunConfig()

    try:
        by_id = _read_columns(data_path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"data file is not UTF-8 text: {exc.reason}") from None
    if not by_id:
        raise DataFormatError("data file contains a header but no rows")

    pins = _join(config, list(by_id))
    samples = [PopulationSample(pid, v, *p) for (pid, v), p in zip(by_id.items(), pins)]
    return samples, config


# --------------------------------------------------------------------------
# the report


@dataclass(frozen=True)
class PopulationReport:
    """One population's echoed data, moment fit and self-test."""

    sample: PopulationSample
    fit: NormalUncertain
    self_test: TestDecision


@dataclass(frozen=True)
class RunReport:
    """Complete, serialisable record of one pipeline run."""

    mode: str
    config: RunConfig  # as run: its populations are those that pin, in sample order
    case: ParameterCase
    populations: tuple[PopulationReport, ...]
    homogeneity: HomogeneityResult | None
    selected_group: tuple[str, ...] | None
    common: CommonTestResult | None
    warnings: tuple[str, ...] = ()

    @property
    def alpha(self) -> float:
        return self.config.alpha

    def population(self, pid: str) -> PopulationReport:
        for entry in self.populations:
            if entry.sample.id == pid:
                return entry
        raise KeyError(pid)


# --------------------------------------------------------------------------
# pipeline


def run_pipeline(
    samples: Sequence[PopulationSample],
    config: RunConfig,
    mode: str = "pipeline",
) -> RunReport:
    """Run fit/self-verify, homogeneity, grouping and the pooled test.

    ``mode`` truncates the run: ``fit`` stops after per-population fits,
    ``homogeneity`` stops after grouping, ``common`` skips homogeneity and
    pools the explicitly selected group (or all populations), ``pipeline``
    runs everything.  Output is deterministic for identical inputs.
    """
    return _run(samples, config, mode, homogeneity_test)


def _run(
    samples: Sequence[PopulationSample],
    config: RunConfig,
    mode: str,
    test_homogeneity: Callable[[FittedGroup, float], HomogeneityResult],
) -> RunReport:
    """The stages of :func:`run_pipeline`, shared with :func:`report_from_dict`.

    ``test_homogeneity`` is :func:`homogeneity_test` on a run and
    :func:`_rederive_homogeneity` on a reload.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not samples:
        raise ValueError("at least one population is required")
    alpha = config.alpha
    case = resolve_case(samples)
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("population ids must be unique")
    _join(config, ids, [(s.known_e, s.known_sigma) for s in samples])
    pinned = [PopulationConfig(s.id, s.known_e, s.known_sigma) for s in samples if any(s.pins)]
    config = replace(config, populations=tuple(pinned))

    warnings: list[str] = []
    populations = []
    for s in samples:
        fit, self_test = fit_and_verify(s, alpha)
        populations.append(PopulationReport(sample=s, fit=fit, self_test=self_test))
        if self_test.rejected:
            warnings.append(
                f"population {s.id}: self-test rejected its own moment fit; "
                "the data may not follow a normal uncertainty distribution"
            )
    fitted = [(p.sample, p.fit) for p in populations]

    homogeneity: HomogeneityResult | None = None
    if mode in ("pipeline", "homogeneity"):
        if len(samples) >= 2:
            homogeneity = test_homogeneity(fitted, alpha)
        else:
            warnings.append("only one population: homogeneity test skipped")

    selected: tuple[str, ...] | None = None
    common: CommonTestResult | None = None
    if mode in ("pipeline", "common"):
        selected = _select_group(ids, config, homogeneity, warnings)
        if len(selected) == 1:
            warnings.append(
                f"group has a single population ({selected[0]}); the pooled "
                "test reduces to its self-consistency check"
            )
        chosen = set(selected)
        group = [(s, fit) for s, fit in fitted if s.id in chosen]
        common = common_test(_AUTO_COMMON[case], group, alpha, theta0=config.theta0_override)
        warnings.extend(common.diagnostics)

    return RunReport(
        mode=mode,
        config=config,
        case=case,
        populations=tuple(populations),
        homogeneity=homogeneity,
        selected_group=selected,
        common=common,
        warnings=tuple(warnings),
    )


def _select_group(
    ids: Sequence[str],
    config: RunConfig,
    homogeneity: HomogeneityResult | None,
    warnings: list[str],
) -> tuple[str, ...]:
    """Explicit selection wins; otherwise the unique largest homogeneous group."""
    if config.group_selection is not None:
        unknown = sorted(set(config.group_selection) - set(ids))
        if unknown:
            raise ConfigurationError(f"group selection names unknown populations: {unknown}")
        chosen = set(config.group_selection)
        if homogeneity is not None and not any(chosen == set(g) for g in homogeneity.groups):
            warnings.append(
                "selected group {%s} is not one of the discovered homogeneous groups"
                % ",".join(sorted(chosen))
            )
        return tuple(i for i in ids if i in chosen)
    if homogeneity is None:
        # No grouping information (single population, or mode 'common'):
        # pool everything.
        return tuple(ids)
    top = len(homogeneity.groups[0])
    tied = [g for g in homogeneity.groups if len(g) == top]
    if len(tied) > 1:
        listing = " ".join("{%s}" % ",".join(sorted(g)) for g in tied)
        raise ConfigurationError(
            f"largest homogeneous group is ambiguous; pick one with an explicit "
            f"group selection: {listing}"
        )
    chosen = set(tied[0])
    return tuple(i for i in ids if i in chosen)


# --------------------------------------------------------------------------
# serialisation


# Every key of a document and of each of its population entries; a reader
# rejects a document with any other.
_REPORT_KEYS = ("schema_version", "mode", "config", "populations")
_POPULATION_KEYS = ("id", "values")


def report_to_dict(report: RunReport) -> dict[str, Any]:
    """Versioned tree of a run's inputs: the mode, config (the one place of
    the pins) and data that :func:`report_from_dict` runs the pipeline's
    stages on again.
    """
    populations = list(map(_population_entry, report.populations))
    return {**_report_head(report), "populations": populations}


def _report_head(report: RunReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": report.mode,
        "config": config_to_dict(report.config),
    }


def _population_entry(population: PopulationReport) -> dict[str, Any]:
    return {"id": population.sample.id, "values": list(population.sample.values)}


def report_from_dict(obj: Any) -> RunReport:
    """Inverse of :func:`report_to_dict`: the stored inputs run through the
    pipeline's stages.

    Raises :class:`DataFormatError` for any other schema version and for any
    document that does not describe a valid report, including one whose
    inputs make a stage fail.
    """
    if not isinstance(obj, dict):
        raise DataFormatError("report root must be a key/value mapping")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise DataFormatError(
            f"unsupported report schema version {obj.get('schema_version')!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    try:
        return _report_from_dict(obj)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataFormatError(f"malformed report: {type(exc).__name__}: {exc}") from None


def _check_keys(obj: Any, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict) or set(obj) != set(keys):
        found = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise ValueError(f"{what} must be a mapping with keys {list(keys)}, got {found}")


def _report_from_dict(obj: dict[str, Any]) -> RunReport:
    _check_keys(obj, _REPORT_KEYS, "report")
    config = config_from_dict(obj["config"])
    entries = obj["populations"]
    if not isinstance(entries, list):
        raise ValueError("populations must be a list")
    for entry in entries:
        _check_keys(entry, _POPULATION_KEYS, "population entry")
        if not isinstance(entry["id"], str):
            raise ValueError(f"population id must be a string, got {entry['id']!r}")
    ids = [entry["id"] for entry in entries]
    samples = [
        PopulationSample(pid, entry["values"], *pins)
        for pid, entry, pins in zip(ids, entries, _join(config, ids))
    ]
    report = _run(samples, config, obj["mode"], _rederive_homogeneity)
    if report.config != config:
        raise ValueError(
            "config.populations must list each population that pins a parameter, in sample order"
        )
    return report


def _rederive_homogeneity(group: FittedGroup, alpha: float) -> HomogeneityResult:
    """What :func:`homogeneity_test` returns for ``group``, for a reload.

    The pairs are the table-backed sequence of :meth:`CrossTests.pairwise`,
    built only when read, and the groups come from the table's bitsets, so a
    reload builds no record.  The stage calls neither ``pairwise_test`` nor
    ``homogeneity_test``, because calls to those two trace the work of a run.
    """
    case = resolve_case([s for s, _ in group])
    tests = CrossTests(alpha, group)
    groups = _groups([s.id for s, _ in group], tests._neighbours())
    return HomogeneityResult(case=case, alpha=alpha, pairwise=tests.pairwise(), groups=groups)


# --------------------------------------------------------------------------
# emission


# Wide enough for every finite double at three decimals: 309 integer digits
# below 1.8e308, plus the three kept.
_FMT3_CONTEXT = Context(prec=312, rounding=ROUND_HALF_UP)
_THOUSANDTH = Decimal("0.001")


def _fmt3(x: float) -> str:
    """Three decimals, ties rounded away from zero (table rendering only)."""
    return str(Decimal(repr(float(x))).quantize(_THOUSANDTH, context=_FMT3_CONTEXT))


def _fmt_interval(lower: float, upper: float) -> str:
    return f"[{_fmt3(lower)}, {_fmt3(upper)}]"


def _line(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(map(str.ljust, cells, widths)).rstrip() + "\n"


def _table(rows: list[list[str]]) -> Iterator[str]:
    widths = [max(map(len, column)) for column in zip(*rows)]
    return (_line(r, widths) for r in rows)


def _heading(title: str, rule: str = "-") -> str:
    return f"{title}\n{rule * len(title)}\n"


def _group_label(ids: Sequence[str]) -> str:
    return "{%s}" % ",".join(ids)


def _text_pieces(report: RunReport) -> Iterator[str]:
    """The text report, a line or a few at a time, and the pair table a few
    hundred rows at a time.  Of its tables only the fits, one row per
    population, are held whole, and the interval matrix as a pointer per
    cell.  The pairs are walked twice: once for the matrix and the pair
    table's widths, once for the pair table's rows."""
    # With equal pins, or none, the n x n interval matrix and the self-tests
    # hold one band per source, so each is formatted once; the bound keeps
    # the cache small when every cell's band differs.
    interval_text = lru_cache(maxsize=len(report.populations) + 1)(_fmt_interval)
    yield _heading("multi-population uncertainty test report", "=")
    yield (
        f"\nmode: {report.mode}\nsignificance level: {report.alpha:g}\n"
        f"parameter case: {report.case.value}\n\n"
    )

    yield _heading("population fits and self-tests")
    fits = (
        [
            p.sample.id,
            str(p.sample.size),
            _fmt3(p.fit.e),
            _fmt3(p.fit.sigma),
            interval_text(p.self_test.interval.lower, p.self_test.interval.upper),
            str(p.self_test.outlier_count),
            p.self_test.verdict,
        ]
        for p in report.populations
    )
    header = ["id", "m", "e", "sigma", "acceptance interval", "outliers", "self-test"]
    yield from _table([header, *fits])
    yield "\n"

    if report.homogeneity is not None:
        hom = report.homogeneity
        ordered = [p.sample.id for p in report.populations]
        position = {pid: k for k, pid in enumerate(ordered)}
        # Row k holds population k's data against every source, its own
        # self-test band on the diagonal.  Cells formatted alike share one
        # string, so the matrix costs a pointer per cell.
        matrix = [[""] * len(ordered) for _ in ordered]
        for k, p in enumerate(report.populations):
            matrix[k][k] = interval_text(p.self_test.interval.lower, p.self_test.interval.upper)
        # One walk over the pairs fills the matrix and measures the counts of
        # the pair table, whose rows are then made in a second walk.  Every
        # pair is listed, so the widest label joins the two longest ids.  A
        # "count/threshold" cell is widest at the largest count of its
        # threshold, so each direction keeps that count per threshold.  The
        # last column needs no width, as _line strips its padding.
        header = ["pair", "outliers i|j", "outliers j|i", "equality"]
        w0 = max(len(header[0]), sum(sorted(map(len, ordered))[-2:]) + 1)
        most_ij: dict[int, int] = {}
        most_ji: dict[int, int] = {}
        for i, j, ij, ji, _ in hom.pairwise:
            a, b = position[i], position[j]
            matrix[a][b] = interval_text(ij.interval.lower, ij.interval.upper)
            matrix[b][a] = interval_text(ji.interval.lower, ji.interval.upper)
            # Comparisons, not max(): this loop runs once per pair.
            if (count := len(ij.outlier_indices)) > most_ij.get(ij.threshold, -1):
                most_ij[ij.threshold] = count
            if (count := len(ji.outlier_indices)) > most_ji.get(ji.threshold, -1):
                most_ji[ji.threshold] = count
        w1, w2 = (
            max([len(name), *(len(f"{count}/{threshold}") for threshold, count in most.items())])
            for name, most in zip(header[1:3], (most_ij, most_ji))
        )

        yield _heading("acceptance intervals (data rows vs parameter sources)")
        columns = ["data\\source", *ordered]
        widths = [max(map(len, columns))]
        widths += [max(map(len, chain([pid], cells))) for pid, cells in zip(ordered, zip(*matrix))]
        yield _line(columns, widths)
        for pid, cells in zip(ordered, matrix):
            yield _line([pid, *cells], widths)
        yield "\n"

        # The rows, padded as _line pads them, a few hundred to a piece.
        yield _heading("pairwise equality tests")
        yield _line(header, [w0, w1, w2, 0])
        rows = (
            f"{i + '~' + j:<{w0}}  {f'{len(ij.outlier_indices)}/{ij.threshold}':<{w1}}  "
            f"{f'{len(ji.outlier_indices)}/{ji.threshold}':<{w2}}  "
            f"{'cannot be rejected' if homogeneous else 'rejected'}\n"
            for i, j, ij, ji, homogeneous in hom.pairwise
        )
        while piece := "".join(islice(rows, 256)):
            yield piece
        yield "\n"
        yield (
            "homogeneity hypothesis: "
            + ("rejected" if hom.rejected else "cannot be rejected")
            + "\nhomogeneous groups: "
            + " ".join(_group_label(sorted(g)) for g in hom.groups)
            + "\n\n"
        )

    if report.common is not None:
        c = report.common
        assert report.selected_group is not None
        yield _heading("pooled test on selected group")
        yield f"group: {_group_label(report.selected_group)}\n"
        yield f"tested parameter: {c.case.value}\n"
        yield f"reference: e={_fmt3(c.theta0.e)} sigma={_fmt3(c.theta0.sigma)}\n"
        interval = c.decision.interval
        yield f"acceptance interval: {interval_text(interval.lower, interval.upper)}\n"
        outliers = ", ".join(str(i) for i in c.decision.outlier_indices) or "none"
        yield (
            f"outliers: {c.decision.outlier_count} of {c.decision.sample_size} "
            f"(threshold {c.decision.threshold}) at merged positions: {outliers}\n"
        )
        if c.decision.outlier_indices:
            origins = ", ".join(f"{pid}[{idx}]" for pid, idx in c.outlier_origins)
            yield f"outlier origins: {origins}\n"
        yield f"hypothesis: {c.decision.verdict}\n\n"

    yield _heading("warnings")
    if report.warnings:
        yield from (f"- {w}\n" for w in report.warnings)
    else:
        yield "(none)\n"


# The encoder of json.dumps(..., separators=(",", ":")), which is the C
# encoder: one encode per piece keeps its speed without a whole document.
_JSON = json.JSONEncoder(separators=(",", ":"))


def _structured_pieces(report: RunReport) -> Iterator[str]:
    """:func:`report_to_dict` encoded one population at a time."""
    yield _JSON.encode(_report_head(report))[:-1] + ',"populations":['
    for k, population in enumerate(report.populations):
        if k:
            yield ","
        yield _JSON.encode(_population_entry(population))
    yield "]}\n"


def _report_pieces(report: RunReport, format: str) -> Iterator[str]:
    """The report document in order, in pieces that a caller writes as they
    come, so the whole document never exists at once."""
    if format == "text":
        return _text_pieces(report)
    if format == "structured":
        return _structured_pieces(report)
    raise ValueError(f"format must be 'text' or 'structured', got {format!r}")


def emit_report(report: RunReport, format: str = "text") -> str:
    """Render a report as a text document or a versioned structured document."""
    return "".join(_report_pieces(report, format))


def parse_report(document: str) -> RunReport:
    """Parse a structured report document back into a :class:`RunReport`."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"report is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise DataFormatError(f"report holds a number too long to read: {exc}") from None
    except RecursionError:
        raise DataFormatError("report nests too deeply to read") from None
    return report_from_dict(obj)


def export_data(report: RunReport) -> str:
    """Reconstruct the ingested data file from the report's echo."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["population", "value"])
    for p in report.populations:
        for v in p.sample.values:
            writer.writerow([p.sample.id, repr(v)])
    return out.getvalue()


def _csv_field(text: str) -> str:
    """``text`` as a :func:`csv.writer` of rows ending in ``"\\n"`` writes it in a field."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])  # quoting depends on the terminator
    return out.getvalue()[:-1]


def emit_plot_data(report: RunReport, out_path: str | Path) -> None:
    """Write long-format rows for external plotting: every data point against
    every parameter source of the homogeneity matrix, with its band and flag.

    Rows are written as they are made, so memory does not grow with them.
    """
    bands = CrossTests(report.alpha)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("population,index,value,interval_source,lower,upper,is_outlier\n")
        fields = [_csv_field(p.sample.id) for p in report.populations]
        for data, pid in zip(report.populations, fields):
            values = data.sample.values
            for source, source_id in zip(report.populations, fields):
                band = bands.band(data.sample, source.fit)
                lower, upper = band.lower, band.upper
                tail = f"{source_id},{lower!r},{upper!r},"
                fh.writelines(
                    f"{pid},{idx},{v!r},{tail}{'true' if v < lower or v > upper else 'false'}\n"
                    for idx, v in enumerate(values, start=1)
                )
