"""Command-line entry point.

Exit codes: 0 = the requested stage ran to completion (whatever the verdicts),
2 = input or configuration problem, 3 = runtime numeric failure such as a
zero-spread sample or moments that overflow double precision.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Sequence

from .errors import ConfigurationError, DataFormatError, NumericError
from .pipeline import MODES, emit_plot_data, emit_report, ingest, run_pipeline
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


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
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
        document = emit_report(report, args.format)
        if args.report:
            Path(args.report).write_text(document, encoding="utf-8")
        else:
            try:
                sys.stdout.write(document)  # encodes the whole document before writing
            except UnicodeEncodeError as exc:
                raise ConfigurationError(
                    f"standard output's encoding ({exc.encoding}) cannot encode the report; "
                    "write it to a UTF-8 file with --report"
                ) from None
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
