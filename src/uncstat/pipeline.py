"""End-to-end pipeline: ingest data and configuration, fit and self-verify
every population, test homogeneity, discover homogeneous groups, and run the
pooled test on a selected group.  Reports serialize to a stable, versioned
structure that stores each fact once, and render as plain-text tables.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Sequence

from .errors import ConfigurationError, DataFormatError
from .multi import (
    HomogeneityResult,
    PairwiseDecision,
    ParameterCase,
    check_case,
    cross_interval,
    homogeneity_test,
)
from .pooling import CommonCase, CommonTestResult, common_test, merge_group
from .testing import (
    AcceptanceInterval,
    PopulationSample,
    TestDecision,
    acceptance_interval,
    fit_and_verify,
)
from .udist import NormalUncertain, check_level

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

SCHEMA_VERSION = 2
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
    case: ParameterCase | None = None  # None = resolve from pinned parameters
    populations: tuple[PopulationConfig, ...] = ()
    group_selection: tuple[str, ...] | None = None
    common_case: CommonCase | None = None  # None = follow the parameter case
    theta0_override: NormalUncertain | None = None

    def __post_init__(self) -> None:
        check_level(self.alpha)
        ids = [p.id for p in self.populations]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigurationError(f"duplicate population ids in config: {dupes}")
        if self.group_selection is not None:
            if not self.group_selection:
                raise ConfigurationError("group selection must name at least one population")
            if len(set(self.group_selection)) != len(self.group_selection):
                raise ConfigurationError("group selection repeats a population id")


def _enum_from(value: Any, enum_cls: type, what: str) -> Any:
    if value is None or value == "auto":
        return None
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(sorted(c.value for c in enum_cls))
        raise ConfigurationError(f"{what} must be 'auto' or one of: {allowed}; got {value!r}") from None


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    return float(value)


def config_from_dict(obj: Any) -> RunConfig:
    """Build a :class:`RunConfig` from a parsed key/value tree, strictly."""
    if not isinstance(obj, dict):
        raise ConfigurationError("config root must be a key/value mapping")
    allowed = {"alpha", "case", "populations", "group_selection", "common_case", "theta0"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")

    populations = []
    for entry in obj.get("populations", []):
        if not isinstance(entry, dict):
            raise ConfigurationError("each population entry must be a mapping")
        extra = sorted(set(entry) - {"id", "known_e", "known_sigma"})
        if extra:
            raise ConfigurationError(f"unknown population keys: {extra}")
        if "id" not in entry:
            raise ConfigurationError("population entry lacks an id")
        populations.append(
            PopulationConfig(
                id=str(entry["id"]),
                known_e=None if entry.get("known_e") is None else _number(entry["known_e"], "known_e"),
                known_sigma=None
                if entry.get("known_sigma") is None
                else _number(entry["known_sigma"], "known_sigma"),
            )
        )

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
    try:
        return RunConfig(
            alpha=_number(obj.get("alpha", 0.05), "alpha"),
            case=_enum_from(obj.get("case"), ParameterCase, "case"),
            populations=tuple(populations),
            group_selection=None if group is None else tuple(str(g) for g in group),
            common_case=_enum_from(obj.get("common_case"), CommonCase, "common_case"),
            theta0_override=theta0,
        )
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def config_to_dict(config: RunConfig) -> dict[str, Any]:
    return {
        "alpha": config.alpha,
        "case": "auto" if config.case is None else config.case.value,
        "populations": [
            {"id": p.id, "known_e": p.known_e, "known_sigma": p.known_sigma}
            for p in config.populations
        ],
        "group_selection": None
        if config.group_selection is None
        else list(config.group_selection),
        "common_case": "auto" if config.common_case is None else config.common_case.value,
        "theta0": None
        if config.theta0_override is None
        else {"e": config.theta0_override.e, "sigma": config.theta0_override.sigma},
    }


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file into a validated :class:`RunConfig`."""
    text = Path(path).read_text(encoding="utf-8-sig")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(obj)


# --------------------------------------------------------------------------
# ingestion


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

    text = Path(data_path).read_text(encoding="utf-8-sig")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise DataFormatError("data file is empty")
    header = [h.strip() for h in rows[0]]
    if header != ["population", "value"]:
        raise DataFormatError("line 1: expected header 'population,value'")

    by_id: dict[str, list[float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue  # tolerate blank lines
        if len(row) != 2:
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
        by_id.setdefault(pid, []).append(value)
    if not by_id:
        raise DataFormatError("data file contains a header but no rows")

    declared = {p.id: p for p in config.populations}
    missing = sorted(set(declared) - set(by_id))
    if missing:
        raise ConfigurationError(f"populations declared in config but absent from data: {missing}")

    samples = []
    for pid, values in by_id.items():
        pc = declared.get(pid)
        samples.append(
            PopulationSample(
                id=pid,
                values=tuple(values),
                known_e=None if pc is None else pc.known_e,
                known_sigma=None if pc is None else pc.known_sigma,
            )
        )
    return samples, config


def resolve_case(samples: Sequence[PopulationSample], config: RunConfig) -> ParameterCase:
    """Pick the parameter case from config, or infer it from pinned parameters."""
    if config.case is not None:
        check_case(config.case, samples)
        return config.case
    has_e = [s.known_e is not None for s in samples]
    has_sigma = [s.known_sigma is not None for s in samples]
    if all(has_sigma) and not any(has_e):
        return ParameterCase.MEANS_UNKNOWN
    if all(has_e) and not any(has_sigma):
        return ParameterCase.SIGMAS_UNKNOWN
    if not any(has_e) and not any(has_sigma):
        return ParameterCase.BOTH_UNKNOWN
    raise ConfigurationError(
        "cannot infer the parameter case: pin scales for every population "
        "(locations unknown), locations for every population (scales unknown), "
        "or nothing (both unknown)"
    )


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
    config: RunConfig
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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not samples:
        raise ValueError("at least one population is required")
    alpha = check_level(config.alpha)
    case = resolve_case(samples, config)
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("population ids must be unique")

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
            homogeneity = homogeneity_test(fitted, case, alpha)
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
        common_case = config.common_case if config.common_case is not None else _AUTO_COMMON[case]
        group = [(s, fit) for s, fit in fitted if s.id in set(selected)]
        common = common_test(common_case, group, alpha, theta0=config.theta0_override)
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


def _fit_to_dict(d: NormalUncertain) -> dict[str, float]:
    return {"e": d.e, "sigma": d.sigma}


def _fit_from_dict(obj: dict[str, Any]) -> NormalUncertain:
    return NormalUncertain(obj["e"], obj["sigma"])


def _decision_from(interval: AcceptanceInterval, raw: Any, m: int) -> TestDecision:
    """Rebuild a decision from its band and the outlier positions on record."""
    indices = tuple(raw)
    if indices and not (
        all(type(p) is int for p in indices)
        and 1 <= indices[0]
        and indices[-1] <= m
        and all(a < b for a, b in zip(indices, indices[1:]))
    ):
        raise ValueError(f"outlier positions must ascend within 1..{m}")
    return TestDecision(interval, indices, m)


def report_to_dict(report: RunReport) -> dict[str, Any]:
    """Versioned tree holding each fact of :class:`RunReport` once.

    Bands, thresholds, verdicts, sizes and the merged sample are left out:
    :func:`report_from_dict` derives them again from the data, the fits and
    the level.  Discovered groups are kept, since enumerating them again has
    no bound.
    """
    populations = [
        {
            "id": p.sample.id,
            "known_e": p.sample.known_e,
            "known_sigma": p.sample.known_sigma,
            "values": list(p.sample.values),
            "fit": _fit_to_dict(p.fit),
            "self_test_outliers": list(p.self_test.outlier_indices),
        }
        for p in report.populations
    ]
    homogeneity = None
    if report.homogeneity is not None:
        homogeneity = {
            "pairwise": [
                [
                    p.i,
                    p.j,
                    list(p.decision_i_vs_j.outlier_indices),
                    list(p.decision_j_vs_i.outlier_indices),
                ]
                for p in report.homogeneity.pairwise
            ],
            "groups": [sorted(g) for g in report.homogeneity.groups],
        }
    common = None
    if report.common is not None:
        common = {
            "case": report.common.case.value,
            "theta0": _fit_to_dict(report.common.theta0),
            "outliers": list(report.common.decision.outlier_indices),
            "diagnostics": list(report.common.diagnostics),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": report.mode,
        "case": report.case.value,
        "config": config_to_dict(report.config),
        "populations": populations,
        "homogeneity": homogeneity,
        "selected_group": None if report.selected_group is None else list(report.selected_group),
        "common_test": common,
        "warnings": list(report.warnings),
    }


def report_from_dict(obj: Any) -> RunReport:
    """Inverse of :func:`report_to_dict`.

    Raises :class:`DataFormatError` for any other schema version and for any
    document that does not describe a valid report.
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
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise DataFormatError(f"malformed report: {type(exc).__name__}: {exc}") from None


def _report_from_dict(obj: dict[str, Any]) -> RunReport:
    config = config_from_dict(obj["config"])
    case = ParameterCase(obj["case"])
    alpha = config.alpha
    populations = []
    for entry in obj["populations"]:
        sample = PopulationSample(
            id=entry["id"],
            values=tuple(entry["values"]),
            known_e=entry["known_e"],
            known_sigma=entry["known_sigma"],
        )
        fit = _fit_from_dict(entry["fit"])
        self_test = _decision_from(
            acceptance_interval(fit, alpha), entry["self_test_outliers"], sample.size
        )
        populations.append(PopulationReport(sample=sample, fit=fit, self_test=self_test))
    by_id = {p.sample.id: p for p in populations}

    def cross(data: str, source: str, raw: Any) -> TestDecision:
        sample = by_id[data].sample
        band = cross_interval(case, sample, by_id[source].fit, alpha)
        return _decision_from(band, raw, sample.size)

    homogeneity = None
    if obj["homogeneity"] is not None:
        raw = obj["homogeneity"]
        pairwise = tuple(
            PairwiseDecision(i, j, cross(i, j, i_vs_j), cross(j, i, j_vs_i))
            for i, j, i_vs_j, j_vs_i in raw["pairwise"]
        )
        homogeneity = HomogeneityResult(
            case=case,
            alpha=alpha,
            pairwise=pairwise,
            groups=tuple(frozenset(g) for g in raw["groups"]),
        )

    selected = None if obj["selected_group"] is None else tuple(obj["selected_group"])
    if selected is not None and list(selected) != [i for i in by_id if i in selected]:
        raise ValueError("selected group must name distinct populations in report order")
    common = None
    if obj["common_test"] is not None:
        raw = obj["common_test"]
        common_case = CommonCase(raw["case"])
        theta0 = _fit_from_dict(raw["theta0"])
        merged = merge_group(common_case, [(by_id[i].sample, by_id[i].fit) for i in selected])
        common = CommonTestResult(
            case=common_case,
            theta0=theta0,
            decision=_decision_from(acceptance_interval(theta0, alpha), raw["outliers"], merged.n),
            merged=merged,
            diagnostics=tuple(raw["diagnostics"]),
        )

    return RunReport(
        mode=obj["mode"],
        config=config,
        case=case,
        populations=tuple(populations),
        homogeneity=homogeneity,
        selected_group=selected,
        common=common,
        warnings=tuple(obj["warnings"]),
    )


# --------------------------------------------------------------------------
# emission


def _fmt3(x: float) -> str:
    """Three decimals, ties rounded away from zero (table rendering only)."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _fmt_interval(lower: float, upper: float) -> str:
    return f"[{_fmt3(lower)}, {_fmt3(upper)}]"


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def _group_label(ids: Sequence[str]) -> str:
    return "{%s}" % ",".join(ids)


def _render_text(report: RunReport) -> str:
    lines: list[str] = []
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
                _fmt_interval(p.self_test.interval.lower, p.self_test.interval.upper),
                str(p.self_test.outlier_count),
                p.self_test.verdict,
            ]
        )
    lines += _table(rows)
    lines.append("")

    if report.homogeneity is not None:
        hom = report.homogeneity
        intervals: dict[tuple[str, str], AcceptanceInterval] = {}
        counts: dict[tuple[str, str], int] = {}
        for p in report.populations:
            intervals[(p.sample.id, p.sample.id)] = p.self_test.interval
            counts[(p.sample.id, p.sample.id)] = p.self_test.outlier_count
        for pw in hom.pairwise:
            intervals[(pw.i, pw.j)] = pw.decision_i_vs_j.interval
            intervals[(pw.j, pw.i)] = pw.decision_j_vs_i.interval
            counts[(pw.i, pw.j)] = pw.decision_i_vs_j.outlier_count
            counts[(pw.j, pw.i)] = pw.decision_j_vs_i.outlier_count
        ordered = [p.sample.id for p in report.populations]

        lines += ["acceptance intervals (data rows vs parameter sources)", "-" * 53]
        rows = [["data\\source"] + ordered]
        for i in ordered:
            rows.append([i] + [_fmt_interval(intervals[(i, j)].lower, intervals[(i, j)].upper) for j in ordered])
        lines += _table(rows)
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
        lines += _table(rows)
        lines.append("")
        lines.append(
            "homogeneity hypothesis: " + ("rejected" if hom.rejected else "cannot be rejected")
        )
        lines.append(
            "homogeneous groups: " + " ".join(_group_label(sorted(g)) for g in hom.groups)
        )
        lines.append("")

    if report.common is not None:
        c = report.common
        lines += ["pooled test on selected group", "-" * 29]
        assert report.selected_group is not None
        lines.append(f"group: {_group_label(report.selected_group)}")
        lines.append(f"tested parameter: {c.case.value}")
        lines.append(f"reference: e={_fmt3(c.theta0.e)} sigma={_fmt3(c.theta0.sigma)}")
        lines.append(
            f"acceptance interval: {_fmt_interval(c.decision.interval.lower, c.decision.interval.upper)}"
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


def emit_report(report: RunReport, format: str = "text") -> str:
    """Render a report as a text document or a versioned structured document."""
    if format == "text":
        return _render_text(report)
    if format == "structured":
        return json.dumps(report_to_dict(report), separators=(",", ":")) + "\n"
    raise ValueError(f"format must be 'text' or 'structured', got {format!r}")


def parse_report(document: str) -> RunReport:
    """Parse a structured report document back into a :class:`RunReport`."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"report is not valid JSON: {exc}") from None
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


def emit_plot_data(report: RunReport, out_path: str | Path) -> None:
    """Write long-format rows for external plotting: every data point against
    every parameter source of the homogeneity matrix, with its band and flag.
    """
    rows: list[list[Any]] = []
    for data in report.populations:
        for source in report.populations:
            band = cross_interval(report.case, data.sample, source.fit, report.alpha)
            for idx, value in enumerate(data.sample.values, start=1):
                rows.append(
                    [
                        data.sample.id,
                        idx,
                        repr(value),
                        source.sample.id,
                        repr(band.lower),
                        repr(band.upper),
                        "true" if (value < band.lower or value > band.upper) else "false",
                    ]
                )
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["population", "index", "value", "interval_source", "lower", "upper", "is_outlier"]
        )
        writer.writerows(rows)
