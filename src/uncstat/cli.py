"""Command-line entry point.

Exit codes: 0 = the requested stage ran to completion (whatever the verdicts),
2 = input or configuration problem, 3 = runtime numeric failure such as a
zero-spread sample or moments that overflow double precision.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import cache
from typing import Sequence, TextIO

from .errors import ConfigurationError, DataFormatError, NumericError
from .pipeline import MODES, RunReport, _report_pieces, emit_plot_data, ingest, run_pipeline

# Unused since main writes the report in pieces, but bench/spans.py still
# wraps ``uncstat.cli.emit_report`` by name, so the name stays importable here.
from .pipeline import emit_report  # noqa: F401
from .udist import NormalUncertain

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncstat",
        description=(
            "Fit normal uncertainty distributions to multiple populations, "
            "test homogeneity of their unknown parameters, and run a pooled "
            "test on a homogeneous group."
        ),
    )
    parser.add_argument("--data", required=True, help="CSV data file with header 'population,value'")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--alpha", type=float, help="significance level (overrides config)")
    parser.add_argument("--report", help="write the report here instead of stdout")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text", help="report format"
    )
    parser.add_argument("--plot-data", help="write per-point interval rows (CSV) here")
    parser.add_argument("--group", help="comma-separated population ids for the pooled test")
    parser.add_argument(
        "--theta0",
        metavar="E,SIGMA",
        help="test the pooled data against this fixed reference instead of the merged estimate",
    )
    parser.add_argument(
        "--mode", choices=MODES, default="pipeline", help="run a single stage of the pipeline"
    )
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses: built on the first call, once per process.

    Parsing leaves no state on the parser, so calls can share it;
    :func:`build_parser` still returns a new one for callers that extend it.
    """
    return build_parser()


def _parse_theta0(text: str) -> NormalUncertain:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"--theta0 expects 'e,sigma', got {text!r}")
    try:
        return NormalUncertain(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigurationError(f"--theta0: {exc}") from None


def _file_key(path: str) -> tuple | None:
    """What identifies the file ``path`` names: its device and inode, or, for
    a file not made yet, its directory's and its name; None if neither exists.

    Two stat calls at most, where resolving a path costs one per component.
    """
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except OSError:
        head, name = os.path.split(path)
    try:
        st = os.stat(head or ".")
    except OSError:
        return None
    return st.st_dev, st.st_ino, name


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse an output file that is an input or the other output."""
    named: dict[tuple, str] = {}
    for flag, path in (
        ("--data", args.data),
        ("--config", args.config),
        ("--report", args.report),
        ("--plot-data", args.plot_data),
    ):
        key = _file_key(path) if path else None
        if key is None:
            continue
        if key in named and flag in ("--report", "--plot-data"):
            raise ConfigurationError(f"{flag} and {named[key]} name the same file: {path}")
        named.setdefault(key, flag)


def _check_encodable(report: RunReport, stream: TextIO) -> None:
    """Raise before the first write if ``stream`` cannot encode the text report.

    The report is written as it is made, so a failure midway would leave part
    of it behind.  Only ids, and the warnings that quote them, can hold text
    beyond ASCII.
    """
    encoding = getattr(stream, "encoding", None)
    if encoding is None:  # an in-memory stream holds any text
        return
    text = "\n".join([*(p.sample.id for p in report.populations), *report.warnings])
    try:
        text.encode(encoding, getattr(stream, "errors", None) or "strict")
    except UnicodeEncodeError as exc:
        raise ConfigurationError(
            f"standard output's encoding ({exc.encoding}) cannot encode the report; "
            "write it to a UTF-8 file with --report"
        ) from None


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_paths(args)
        samples, config = ingest(args.data, args.config)
        if args.alpha is not None:
            try:
                config = replace(config, alpha=args.alpha)
            except ValueError as exc:
                raise ConfigurationError(f"--alpha: {exc}") from None
        if args.group is not None:
            ids = tuple(g.strip() for g in args.group.split(",") if g.strip())
            if not ids:
                raise ConfigurationError("--group names no population ids")
            config = replace(config, group_selection=ids)
        if args.theta0 is not None:
            config = replace(config, theta0_override=_parse_theta0(args.theta0))

        report = run_pipeline(samples, config, mode=args.mode)
        pieces = _report_pieces(report, args.format)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            if args.format == "text":  # the structured report escapes all but ASCII
                _check_encodable(report, sys.stdout)
            sys.stdout.writelines(pieces)
        if args.plot_data:
            emit_plot_data(report, args.plot_data)
    except (DataFormatError, ConfigurationError, OSError) as exc:
        print(f"uncstat: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"uncstat: numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
