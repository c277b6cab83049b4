"""Command-line front end for sweeps, capacity heatmaps, alignment
classification, and the analytic-vs-numeric verification gate.

Exit codes: 0 success, 1 scenario fails validation (or a downstream
structural error), 2 scenario cannot be parsed / usage error / output cannot
be written, 3 verification failed.  All CSV output is byte-deterministic for
identical inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import sys

from . import sweep as sweep_mod
from .closed_form import (
    DegenerateWeightsError,
    ScenarioInvalidError,
    classify_alignment,
)
from .dispatch import DispatchInfeasibleError
from .grid_model import (
    ScenarioError,
    ScenarioParseError,
    parse_scenario_file,
    tau,
)
from .lp_core import SolverFailure

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_VERIFY_FAILED = 3


def _parse_range(text: str) -> tuple[float, float]:
    try:
        low, high = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a 'low:high' range, got {text!r}"
        ) from None
    if not math.isfinite(high - low):  # also catches an infinite or NaN bound
        raise argparse.ArgumentTypeError(
            f"range {text!r} must have finite bounds and a finite span"
        )
    if not low <= high:
        raise argparse.ArgumentTypeError(f"range {text!r} must have low <= high")
    return (low, high)


def _parse_resolution(text: str) -> int:
    try:
        resolution = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if resolution < 2:
        raise argparse.ArgumentTypeError(
            f"resolution must be at least 2, got {resolution}"
        )
    return resolution


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file, so that writing both keeps
    only the second: a hard or symbolic link names the file it links to, a
    dangling one the file it would create.  Names that do not both exist
    meet only through a symbolic link or in one file name."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    meet = os.path.islink(a) or os.path.islink(b) or os.path.basename(a) == os.path.basename(b)
    return meet and os.path.realpath(a) == os.path.realpath(b)


def _write_outputs(scenario: str, *outputs: tuple[str, list[str]]) -> None:
    """Write each ``(destination, lines)`` pair in turn, ``-`` to stdout, or
    none if one is the ``scenario`` file.  If one cannot be written, the files
    this call opened are removed, so a failed call leaves no partial output."""
    for destination, _ in outputs:
        if destination != "-" and _same_file(destination, scenario):
            raise OSError(f"{destination!r} is the scenario file")
    opened = []
    try:
        for destination, lines in outputs:
            text = "\n".join(lines) + "\n"
            if destination == "-":
                sys.stdout.write(text)
                continue
            with open(destination, "w", encoding="utf-8", newline="\n") as handle:
                opened.append(destination)
                handle.write(text)
    except OSError:
        for path in opened:
            pathlib.Path(path).unlink(missing_ok=True)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridshift",
        description=(
            "Shift a flexible load block across a three-bus system: sweep the "
            "settlement objectives, scan line capacities for incentive "
            "misalignment, classify one scenario, or verify the closed forms "
            "against independent dispatch solves."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario",
        required=True,
        help="scenario file ('key = value' lines; see bundled examples)",
    )
    common.add_argument(
        "--out",
        default="-",
        help="output destination; '-' (default) writes to stdout",
    )
    common.add_argument(
        "--resolution",
        type=_parse_resolution,
        default=None,
        help="grid resolution (default: 200 for sweep/verify, 50 for heatmap)",
    )

    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser(
        "sweep",
        parents=[common],
        help="CSV of both objectives along the shift grid, analytic and numeric",
    )
    heatmap = sub.add_parser(
        "heatmap",
        parents=[common],
        help="CSV alignment scan over (F01, F12) plus the analytic boundary CSV",
    )
    heatmap.add_argument(
        "--f01-range",
        type=_parse_range,
        default=None,
        metavar="LOW:HIGH",
        help="F01 scan range (default: l1 + F12 low end, up to 3)",
    )
    heatmap.add_argument(
        "--f12-range",
        type=_parse_range,
        default=(0.0, 1.0),
        metavar="LOW:HIGH",
        help="F12 scan range (default 0:1)",
    )
    heatmap.add_argument(
        "--boundary-out",
        default=None,
        help="path for the boundary CSV (default: derived from --out)",
    )
    sub.add_parser(
        "classify",
        parents=[common],
        help="human-readable alignment verdict (CSV row if --out is a file)",
    )
    sub.add_parser(
        "verify",
        parents=[common],
        help="cross-check closed forms against LP dispatch over the grid",
    )
    return parser


def _run_sweep(scenario, args) -> int:
    lines = sweep_mod.sweep_csv_lines(scenario, args.resolution or 200)
    _write_outputs(args.scenario, (args.out, lines))
    return EXIT_OK


def _run_heatmap(scenario, args) -> int:
    f12_range = args.f12_range
    f01_range = args.f01_range or sweep_mod.default_f01_range(scenario, f12_range)
    boundary_out = args.boundary_out
    if boundary_out is None:
        if args.out == "-":
            print(
                "error: heatmap writes two files; give --out a path or use "
                "--boundary-out",
                file=sys.stderr,
            )
            return EXIT_PARSE
        out_path = pathlib.Path(args.out)
        if not out_path.name:  # "", "." or "/": no file name to derive from
            print(f"error: --out {args.out!r} names no file to write", file=sys.stderr)
            return EXIT_PARSE
        suffix = out_path.suffix or ".csv"
        boundary_out = str(out_path.with_name(out_path.stem + "_boundary" + suffix))
    # Writing both to one file would leave only the boundary table in it.
    if "-" not in (args.out, boundary_out) and _same_file(args.out, boundary_out):
        print(f"error: --out and --boundary-out name the same file {boundary_out!r}", file=sys.stderr)
        return EXIT_PARSE
    cell_lines, boundary_lines = sweep_mod.heatmap_csv_lines(
        scenario, f01_range, f12_range, args.resolution or 50
    )
    _write_outputs(args.scenario, (args.out, cell_lines), (boundary_out, boundary_lines))
    return EXIT_OK


def _run_classify(scenario, args) -> int:
    report = classify_alignment(scenario)
    if args.out != "-":
        _write_outputs(args.scenario, (args.out, [report.CSV_HEADER, report.to_csv_row()]))
    threshold = tau(scenario)
    print(
        f"scenario: {args.scenario}\n"
        f"threshold: {threshold.value:.6g} ({threshold.binding}-limited)\n"
        + report.to_text()
    )
    return EXIT_OK


def _run_verify(scenario, args) -> int:
    report = sweep_mod.verify_scenario(scenario, args.resolution or 200)
    _write_outputs(args.scenario, (args.out, report.to_text().splitlines()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_PARSER = build_parser()

_HANDLERS = {
    "sweep": _run_sweep,
    "heatmap": _run_heatmap,
    "classify": _run_classify,
    "verify": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        scenario = parse_scenario_file(args.scenario)
    except ScenarioParseError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        return _HANDLERS[args.mode](scenario, args)
    except ScenarioInvalidError as exc:
        print(exc.report.to_text(), file=sys.stderr)
        return EXIT_INVALID
    except (DegenerateWeightsError, DispatchInfeasibleError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverFailure as exc:
        print(f"error: solver breakdown: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except MemoryError as exc:
        print(f"error: --resolution {args.resolution} is too large: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
