"""Command-line interface.

Commands: solve, oracle, gen, lift, toy, check.  All file I/O is explicit
(paths or --out); diagnostics go to stderr, controlled by the DVS_LOG
environment variable (quiet, info, trace).  Exit codes: 0 success/PASS,
2 validation or input error, 3 solve finished without a global-optimality
certificate, 4 check FAIL.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import math
import os
import sys
import time
from pathlib import Path

from .errors import DvsError
from .generator import GenSpec, generate
from .model import CERTIFIED_GLOBAL, lift
from .oracle import enumerate_discrete
from .serialize import (
    check,
    emit_lifted,
    emit_oracle_report,
    emit_problem,
    emit_report,
    emit_toy_solution,
    parse_problem,
)
from .solver import FALLBACK_ORACLE_MAX_K, solve
from .toy import ToyInstance, toy_curves, toy_solve

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO,
               "trace": logging.DEBUG}
_LOG = logging.getLogger("dvs")
# Attached to _LOG for one main() call at a time, on that call's stderr.
_HANDLER = logging.StreamHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _cmd_solve(args) -> int:
    if args.fallback_oracle < 0:
        raise ValueError("--fallback-oracle must be >= 0")
    p = parse_problem(_read(args.problem))
    report = solve(p, fallback_oracle_max_K=args.fallback_oracle)
    Path(args.out).write_bytes(emit_report(report, include_trace=args.trace))
    print(f"status={report.status} objective={report.objective:.12g} "
          f"gap={report.certificate.gap:.3e} iterations={report.iterations}")
    return 0 if report.status == CERTIFIED_GLOBAL else 3


def _cmd_oracle(args) -> int:
    p = parse_problem(_read(args.problem))
    t0 = time.perf_counter()
    x, value, feasible, total = enumerate_discrete(p)
    seconds = time.perf_counter() - t0
    Path(args.out).write_bytes(
        emit_oracle_report(x, value, feasible, total, seconds))
    print(f"objective={value:.12g} feasible={feasible}/{total}")
    return 0


def _cmd_gen(args) -> int:
    values = tuple(float(v) for v in args.values.split(","))
    spec = GenSpec(n=args.n, m=args.m, seed=args.seed, value_set=values)
    Path(args.out).write_bytes(emit_problem(generate(spec)))
    return 0


def _cmd_lift(args) -> int:
    p = parse_problem(_read(args.problem))
    Path(args.out).write_bytes(emit_lifted(lift(p)))
    return 0


def _cmd_toy(args) -> int:
    # Every option is validated, and the curves computed, before the
    # solution is printed.
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
    except ValueError:
        raise ValueError(f"--range must have the form lo:hi, got "
                         f"{args.range!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--range bounds must be finite")
    f = [float(v) for v in args.f.split(",")]
    t = ToyInstance(alpha=args.alpha, lam=args.lam, f=f)
    x, primal, dual, sigma1 = toy_solve(t)
    rows = toy_curves(t, (lo, hi), args.steps) if args.curves else None
    sys.stdout.write(emit_toy_solution(x, primal, dual, sigma1).decode())
    if rows is not None:
        with open(args.curves, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "abscissa", "value"])
            for kind, a, v in rows:
                writer.writerow([kind, format(a, ".17g"), format(v, ".17g")])
    return 0


def _cmd_check(args) -> int:
    passed, failures = check(_read(args.problem), _read(args.report))
    if passed:
        print("PASS")
        return 0
    print("FAIL")
    for reason in failures:
        print(f"  {reason}")
    return 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every main() call can share it.  Only a process that
    calls main() more than once saves anything."""
    parser = argparse.ArgumentParser(
        prog="dvs",
        description="Certified global solver for quadratic programs over "
                    "discrete value sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem via dual maximization")
    sp.add_argument("problem", help="problem JSON file")
    sp.add_argument("--fallback-oracle", type=int,
                    default=FALLBACK_ORACLE_MAX_K, metavar="K",
                    help="run exhaustive enumeration when not certified and "
                         "the lifted dimension is at most K (0 disables)")
    sp.add_argument("--trace", action="store_true",
                    help="include per-iteration dual values in the report")
    sp.add_argument("--out", required=True, help="report JSON output path")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("oracle", help="exhaustive enumeration (small instances)")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--values", default="1,2,3,4,5",
                    help="comma-separated candidate values (every variable)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("lift", help="write the lifted 0-1 problem")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_lift)

    sp = sub.add_parser("toy", help="solve the 1-D double-well example")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--f", required=True,
                    help="comma-separated entries of the linear term")
    sp.add_argument("--curves", help="write sampled curves to this CSV path")
    sp.add_argument("--range", default="-5:5", help="abscissa span lo:hi")
    sp.add_argument("--steps", type=int, default=1000)
    sp.set_defaults(func=_cmd_toy)

    sp = sub.add_parser("check", help="re-verify a report against its problem")
    sp.add_argument("problem")
    sp.add_argument("report")
    sp.set_defaults(func=_cmd_check)
    return parser


def _join_dash_values(argv):
    """Re-join `--range -5:5` style pairs that argparse would misread.

    argparse treats a value starting with "-" as an option string unless
    it is a plain negative number, so spans and negative vectors must be
    glued into the `--opt=value` form before parsing.
    """
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--range", "--f", "--values"):
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    """Run one dvs command.  DVS_LOG is read on every call; the "dvs"
    loggers write to this call's sys.stderr, and their handlers, level and
    propagate flag are restored on return.  The root logger is untouched."""
    name = os.environ.get("DVS_LOG", "quiet").lower()
    saved = _LOG.level, _LOG.propagate
    _HANDLER.stream = sys.stderr
    _LOG.addHandler(_HANDLER)
    _LOG.setLevel(_LOG_LEVELS.get(name, logging.WARNING))
    _LOG.propagate = False
    try:
        if name not in _LOG_LEVELS:
            _LOG.warning("unknown DVS_LOG value %r; using quiet", name)
        args = _build_parser().parse_args(
            _join_dash_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (DvsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _LOG.removeHandler(_HANDLER)
        _LOG.setLevel(saved[0])
        _LOG.propagate = saved[1]


if __name__ == "__main__":
    sys.exit(main())
