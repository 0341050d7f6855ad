"""Batch command line: panel CSV in, plot-ready CSV out.

Five subcommands::

    ratinglab counts       --input panel.csv --output outdir/
    ratinglab moments      --input panel.csv --output moments.csv [--tau 365]
    ratinglab homogeneity  --input panel.csv --output homog.csv [--window year]
    ratinglab ck           --input panel.csv --output ck.csv [--window year]
    ratinglab simulate     --scenario scen.txt --output panel.csv [--seed N]

No logic lives here beyond wiring and formatting; every command is a
thin shell over the library and is deterministic given its inputs.
Exit codes: 0 success, 1 usage error (bad flags, missing files),
2 malformed data.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from .dates import parse_iso_date
from .descriptive import moment_series, write_moment_series_csv
from .diagnostics import WINDOW_MONTHS, rolling_series, write_test_series_csv
from .errors import RatingLabError, SpanError
from .ingest import (
    daily_counts,
    parse_panel,
    transitions_per_bank,
    write_count_series_csv,
    write_panel_csv,
)
from .simulator import load_scenario, simulate

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    """Flag/path problems; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the convention here
    # reserves 2 for data problems, so route through an exception.
    def error(self, message):
        raise _UsageError(message)


def _date_arg(text: str):
    try:
        return parse_iso_date(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_panel_args(sp: argparse.ArgumentParser, output_help: str) -> None:
    sp.add_argument("--input", required=True, help="panel event CSV")
    sp.add_argument("--output", required=True, help=output_help)
    sp.add_argument(
        "--from", dest="span_from", type=_date_arg, metavar="DATE",
        help="span start (default: earliest record date)",
    )
    sp.add_argument(
        "--to", dest="span_to", type=_date_arg, metavar="DATE",
        help="span end (default: latest record date)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ratinglab", description="Rating-panel batch analysis.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    sp = sub.add_parser("counts", help="daily rated-bank and transition-rate series")
    _add_panel_args(sp, "directory for daily_counts.csv and transitions_per_bank.csv")
    sp.set_defaults(func=cmd_counts)

    sp = sub.add_parser("moments", help="rolling moments of ratings and increments")
    _add_panel_args(sp, "moment series CSV")
    sp.add_argument("--tau", type=int, default=365, help="increment lag in days (default 365)")
    sp.set_defaults(func=cmd_moments)

    for name, help_text, func in (
        ("homogeneity", "rolling time-homogeneity statistic", cmd_homogeneity),
        ("ck", "rolling semigroup-consistency deviation", cmd_ck),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_panel_args(sp, "test series CSV")
        sp.add_argument("--window", choices=tuple(WINDOW_MONTHS), default="year")
        sp.set_defaults(func=func)

    sp = sub.add_parser("simulate", help="draw a synthetic panel from a scenario file")
    sp.add_argument("--scenario", required=True, help="scenario key=value file")
    sp.add_argument("--output", required=True, help="panel CSV to write")
    sp.add_argument("--seed", type=int, help="override the scenario seed")
    sp.set_defaults(func=cmd_simulate)

    return parser


def _load_panel(args):
    path = Path(args.input)
    if not path.is_file():
        raise _UsageError(f"input file not found: {path}")
    try:
        return parse_panel(path, (args.span_from, args.span_to))
    except SpanError as exc:
        start = "the earliest record date" if args.span_from is None else "--from"
        end = "the latest record date" if args.span_to is None else "--to"
        raise _UsageError(f"{end} {exc.end} is before {start} {exc.start}") from None


def _prepare_file(path_text: str) -> Path:
    path = Path(path_text)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_counts(args) -> None:
    panel = _load_panel(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_count_series_csv(daily_counts(panel), outdir / "daily_counts.csv")
    write_count_series_csv(transitions_per_bank(panel), outdir / "transitions_per_bank.csv")


def cmd_moments(args) -> None:
    if args.tau < 1:
        raise _UsageError(f"--tau must be >= 1 day, got {args.tau}")
    panel = _load_panel(args)
    write_moment_series_csv(moment_series(panel, tau=args.tau), _prepare_file(args.output))


def cmd_homogeneity(args) -> None:
    panel = _load_panel(args)
    series = rolling_series(panel, "homogeneity_L", window_length=args.window)
    write_test_series_csv(series, _prepare_file(args.output))


def cmd_ck(args) -> None:
    panel = _load_panel(args)
    series = rolling_series(panel, "ck_l2", window_length=args.window)
    write_test_series_csv(series, _prepare_file(args.output))


def cmd_simulate(args) -> None:
    path = Path(args.scenario)
    if not path.is_file():
        raise _UsageError(f"scenario file not found: {path}")
    scenario = load_scenario(path)
    if args.seed is not None:
        if args.seed < 0:
            raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
        scenario = dataclasses.replace(scenario, seed=args.seed)
    write_panel_csv(simulate(scenario), _prepare_file(args.output))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except _UsageError as exc:
        print(f"ratinglab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RatingLabError as exc:
        print(f"ratinglab: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"ratinglab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
