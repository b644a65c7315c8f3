"""Command-line front end.

Verbs:
  bounds      delay bounds for one system at one (M, m)
  sweep       hierarchy sweep over an (M, m) grid with monotonicity audit
  verify      run the inequality/orthogonality property suites
  crosscheck  diff the published closed-form matrix recipes against the
              exact basis-change construction

All results go to stdout; diagnostics to stderr.  Exit codes: 0 success,
1 input error, 2 no feasible delay found (for a sweep: any cell failed),
3 run dominated by inconclusive solver probes, 4 hierarchy monotonicity
violation (a sweep with failed cells exits 2 instead).

The library functions check their own inputs and raise ValueError, as
does ``cmd_crosscheck`` for the one range no library function takes;
``main`` turns that into an ``error:`` line and exit 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from numpy.linalg import LinAlgError

from .lmi import DelaySystem, HierarchyParams
from .projection import crosscheck_closed_forms, max_weighted_order
from .search import (
    DEFAULT_TOL,
    BracketError,
    DelayBoundsReport,
    NoFeasiblePointError,
    SweepResult,
    hierarchy_sweep,
    max_delay,
    min_delay,
    stability_interval,
)
from .systems import BUNDLED_SYSTEMS, bundled_system_path, load_system
from .verification import DEFAULT_SEED, run_all

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_FEASIBLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_VIOLATION = 4


def _system(args: argparse.Namespace) -> DelaySystem:
    """The system of a bounds or sweep run: --system is a file path or the
    name of a bundled system.  Raises SystemFileError on a bad file."""
    path = args.system
    if path in BUNDLED_SYSTEMS and not os.path.exists(path):
        path = bundled_system_path(path)
    return load_system(path)[0]


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.5f}"


def _bounds_text(report: DelayBoundsReport) -> str:
    lines = [
        f"system          {report.system}",
        f"parameters      M={report.big_m}  m={report.m}  (NoDV {report.nodv})",
        f"direction       {report.direction}",
    ]
    if report.direction in ("lower", "interval"):
        lines.append(f"tau_lower       {_fmt(report.tau_lower)}")
    if report.direction in ("upper", "interval"):
        lines.append(f"tau_upper       {_fmt(report.tau_upper)}")
    if report.crossings is not None:
        lower, upper = report.crossings
        lines.append(f"crossings       {_fmt(lower)} {_fmt(upper)}")
    if report.range_certified is not None:
        lines.append(f"range certified {report.range_certified}")
    lines.append(
        f"probes          {len(report.probes)} "
        f"({report.inconclusive_probes} inconclusive), {report.wall_time_s:.2f}s"
    )
    for note in report.notes:
        lines.append(f"note            {note}")
    return "\n".join(lines)


def _bounds_csv(report: DelayBoundsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["system", "M", "m", "direction", "tau_lower", "tau_upper", "nodv",
         "probes", "inconclusive", "wall_time_s", "range_certified"]
    )
    certified = report.range_certified  # None unless the direction is interval
    writer.writerow(
        [report.system, report.big_m, report.m, report.direction,
         "" if report.tau_lower is None else repr(report.tau_lower),
         "" if report.tau_upper is None else repr(report.tau_upper),
         report.nodv, len(report.probes), report.inconclusive_probes,
         f"{report.wall_time_s:.3f}",
         "" if certified is None else str(certified).lower()]
    )
    return buf.getvalue().rstrip("\n")


def _sweep_text(result: SweepResult) -> str:
    lines = []
    header = f"{'m':>3} {'M':>3} {'tau_upper':>12} {'NoDV':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for (big_m, m), rep in sorted(result.cells.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append(f"{m:>3} {big_m:>3} {_fmt(rep.tau_upper):>12} {rep.nodv:>6}")
    for (big_m, m), msg in sorted(result.errors.items()):
        lines.append(f"  (M={big_m}, m={m}) failed: {msg}")
    if result.violations:
        lines.append("monotonicity violations:")
        for v in result.violations:
            lines.append(
                f"  {v['direction']}: (M={v['from']['M']}, m={v['from']['m']}) "
                f"tau={v['from']['tau']:.5f} -> (M={v['to']['M']}, m={v['to']['m']}) "
                f"tau={v['to']['tau']:.5f}"
            )
    else:
        lines.append("monotonicity violations: none")
    return "\n".join(lines)


def _sweep_csv(result: SweepResult) -> str:
    """One row per cell in (M, m) order; a failed cell has only its error."""
    rows = {
        key: ["" if rep.tau_upper is None else repr(rep.tau_upper), rep.nodv,
              len(rep.probes), f"{rep.wall_time_s:.3f}", ""]
        for key, rep in result.cells.items()
    }
    rows.update((key, ["", "", "", "", msg]) for key, msg in result.errors.items())
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["M", "m", "tau_upper", "nodv", "probes", "wall_time_s", "error"])
    for (big_m, m), row in sorted(rows.items()):
        writer.writerow([big_m, m, *row])
    return buf.getvalue().rstrip("\n")


def cmd_bounds(args: argparse.Namespace) -> int:
    params = HierarchyParams(args.M, args.m)
    system = _system(args)
    try:
        if args.direction == "upper":
            _, report = max_delay(system, params, args.tol)
        elif args.direction == "lower":
            _, report = min_delay(system, params, args.tol)
        else:
            report = stability_interval(system, params, args.tol)
    except (NoFeasiblePointError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "csv":
        print(_bounds_csv(report))
    else:
        print(_bounds_text(report))
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    if report.inconclusive_probes > len(report.probes) // 2:
        print("warning: run dominated by inconclusive solver probes", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    result = hierarchy_sweep(_system(args), args.M, args.m, args.tol)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    elif args.format == "csv":
        print(_sweep_csv(result))
    else:
        print(_sweep_text(result))
    if result.errors:
        total = len(result.cells) + len(result.errors)
        print(f"error: {len(result.errors)} of {total} sweep cells failed", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    if result.violations:
        print("warning: hierarchy monotonicity violated", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_all(
        seed=args.seed, max_m=args.max_m, max_big_m=args.max_M, cases=args.cases
    )
    print(f"seed {report.seed}: {report.checks_run} checks, "
          f"{len(report.failures)} failures")
    for failure in report.failures:
        print(f"FAIL {failure}")
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_crosscheck(args: argparse.Namespace) -> int:
    if args.max_m < 0 or max_weighted_order(args.max_m, args.max_M) < 0:
        raise ValueError(f"--max-m must be >= 0 and reached by some M <= --max-M, "
                         f"got --max-m {args.max_m}, --max-M {args.max_M}")
    clean = True
    for m in range(args.max_m + 1):
        for big_m in range(1, args.max_M + 1):
            nu = max_weighted_order(m, big_m)  # the closed forms' tight case
            if nu < 0:
                continue
            report = crosscheck_closed_forms(m, nu, big_m)
            clean &= report.clean
            for line in report.lines():
                print(line)
    print("closed-form crosscheck:", "clean" if clean else "DISCREPANCIES FOUND")
    return EXIT_OK if clean else EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaymargin",
        description="Certified delay-stability bounds for linear time-delay systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, m_floor: int = 0):
        p.add_argument(
            "--system", required=True,
            help=f"system JSON file, or one of {', '.join(BUNDLED_SYSTEMS)}",
        )
        p.add_argument("--M", type=int, default=1, help="moment order (>= 1)")
        p.add_argument("--m", type=int, default=1, help=f"weight depth (>= {m_floor})")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="search tolerance, positive and finite: the bound's "
                            "feasible probe and an infeasible probe beyond it lie "
                            "at most this far apart")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_bounds = sub.add_parser("bounds", help="delay bounds at one (M, m)")
    common(p_bounds)
    p_bounds.add_argument(
        "--direction", choices=("upper", "lower", "interval"), default="upper"
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser(
        "sweep", help="hierarchy sweep over M=1..M, m=1..m with monotonicity audit"
    )
    common(p_sweep, m_floor=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the inequality property suites")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED,
                          help="random seed (>= 0)")
    p_verify.add_argument("--cases", type=int, default=250,
                          help="random soundness cases (>= 1)")
    p_verify.set_defaults(func=cmd_verify)

    p_cross = sub.add_parser(
        "crosscheck", help="diff published closed forms against basis change"
    )
    p_cross.set_defaults(func=cmd_crosscheck)
    for p in (p_verify, p_cross):
        p.add_argument("--max-m", dest="max_m", type=int, default=3,
                       help="largest weight depth m checked (>= 0 and "
                            "<= --max-M - 1)")
        p.add_argument("--max-M", dest="max_M", type=int, default=6,
                       help="largest moment order M checked (>= 1)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except LinAlgError:  # a ValueError, but a solver breakdown, not bad input
        raise
    except ValueError as exc:  # the library's input checks (SystemFileError too)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
