"""Command-line front end.

Exit codes: 0 success, 2 usage error (from argparse, or a --csv path that
cannot be written), 3 parameter/domain error, 4 numerical failure
(construction, non-convergence, overflow).
All numeric output uses shortest round-trip decimal formatting; diagnostics
go to stderr.
"""

import argparse
import sys

from . import __version__
from .errors import DomainError, MLPadeError
from .fode import (
    PREFACTORS,
    RelaxationSpec,
    TwoTermSpec,
    relaxation_exact,
    relaxation_pade,
    two_term_exact,
    two_term_pade,
)
from .harness import DEFAULT_GRID, _csv, emit_report, error_scan, format_shortest
from .inverse import inv_pade
from .pade import build_approx, eval_approx
from .params import GridSpec, classify
from .reference import ml_oracle
from .selftest import WORKED, run_selftest

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAM = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mlpade",
        description="Degree-2 global Pade approximation of the two-parameter "
        "Mittag-Leffler function E_{a,b}(-x) and its inverse.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the approximant (or oracle) at x")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--exact", action="store_true", help="use the reference oracle")

    p = sub.add_parser("inverse", help="evaluate the inverse approximant at y")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("coeffs", help="print approximant coefficients")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument(
        "--table1",
        action="store_true",
        help="print the coefficient table for the worked parameter pairs "
        "of every regime",
    )

    p = sub.add_parser("scan", help="max-error scan of approximant vs oracle")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid-min", type=float, default=DEFAULT_GRID.x_min)
    p.add_argument("--grid-max", type=float, default=DEFAULT_GRID.x_max)
    p.add_argument("--points", type=int, default=DEFAULT_GRID.n_points)
    p.add_argument("--csv", metavar="PATH", help="write per-point csv to PATH")

    p = sub.add_parser("ode", help="fractional-ODE rational vs exact solution")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--relaxation", action="store_true")
    kind.add_argument("--two-term", action="store_true")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, help="two-term equation only")
    p.add_argument("--lambda", dest="lam", type=float)  # relaxation only, default 1
    p.add_argument("--c1", type=float)  # relaxation only, default 1
    p.add_argument("--c2", type=float)  # two-term only, default 0
    p.add_argument(
        "--t-grid",
        default="0.01:100:200",
        metavar="MIN:MAX:N",
        help="logarithmic time grid (default 0.01:100:200)",
    )
    p.add_argument(
        "--prefactor", choices=PREFACTORS, help="relaxation equation only"
    )
    p.add_argument("--csv", metavar="PATH", help="write t,pade,exact,abs_error csv")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return ap


def _cmd_eval(args) -> int:
    params = classify(args.alpha, args.beta)
    value = ml_oracle(params, args.x) if args.exact else eval_approx(build_approx(params), args.x)
    print(format_shortest(value))
    return EXIT_OK


def _cmd_inverse(args) -> int:
    print(format_shortest(inv_pade(classify(args.alpha, args.beta), args.y)))
    return EXIT_OK


def _coeff_line(alpha: float, beta: float) -> str:
    ap = build_approx(classify(alpha, beta))
    return " ".join(f"{c}={format_shortest(getattr(ap, c))}" for c in ("n0", "n1", "d1", "d2"))


def _refuse_given(options, scope: str) -> None:
    """Refuse, not drop, an option the command does not take: DomainError
    naming the first of `options`, (flag, value) pairs, that was given."""
    for flag, value in options:
        if value is not None:
            raise DomainError(f"{flag} {scope}")


def _cmd_coeffs(args) -> int:
    if args.table1:
        _refuse_given([("--alpha", args.alpha), ("--beta", args.beta)], "does not apply to --table1")
        print("regime       alpha beta  coefficients of (n0+n1*x)/(1+d1*x+d2*x^2)")
        for alpha, beta in WORKED:
            regime = classify(alpha, beta).regime.value
            print(
                f"{regime:<12} {format_shortest(alpha):<5} "
                f"{format_shortest(beta):<5} {_coeff_line(alpha, beta)}"
            )
        return EXIT_OK
    if args.alpha is None or args.beta is None:
        raise DomainError("coeffs requires --alpha and --beta (or --table1)")
    print(_coeff_line(args.alpha, args.beta))
    return EXIT_OK


def _write_csv(path: str, data: bytes) -> bool:
    """Write a --csv file; on failure say why on stderr and return False."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"mlpade: cannot write CSV to {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_scan(args) -> int:
    params = classify(args.alpha, args.beta)
    grid = GridSpec(args.grid_min, args.grid_max, args.points, include_zero=True)
    report = error_scan(params, grid)
    if args.csv and not _write_csv(args.csv, emit_report(report, "csv")):
        return EXIT_USAGE
    sys.stdout.write(emit_report(report, "summary").decode("ascii"))
    return EXIT_OK


def _parse_t_grid(text: str) -> list[float]:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise DomainError(f"bad --t-grid {text!r}, expected MIN:MAX:N") from exc
    return GridSpec(lo, hi, n).points()


def _cmd_ode(args) -> int:
    ts = _parse_t_grid(args.t_grid)
    if args.relaxation:
        lam = 1.0 if args.lam is None else args.lam
        spec = RelaxationSpec(args.alpha, lam, 1.0 if args.c1 is None else args.c1)
        prefactor = args.prefactor or "paper"
        rows = [(t, relaxation_pade(spec, t, prefactor), relaxation_exact(spec, t, prefactor))
                for t in ts]
        stray, owner = [("--beta", args.beta), ("--c2", args.c2)], "two-term"
    else:
        if args.beta is None:
            raise DomainError("--two-term requires --beta")
        _refuse_given([("--prefactor", args.prefactor)], "applies to the relaxation equation only")
        spec = TwoTermSpec(args.alpha, args.beta, 0.0 if args.c2 is None else args.c2)
        rows = [(t, two_term_pade(spec, t), two_term_exact(spec, t)) for t in ts]
        stray, owner = [("--lambda", args.lam), ("--c1", args.c1)], "relaxation"
    # refused after the solutions, so that a bad spec or a refused approximant keeps its message
    _refuse_given(stray, f"applies to the {owner} equation only")
    rows = [(t, p, e, abs(p - e)) for t, p, e in rows]
    if args.csv and not _write_csv(args.csv, _csv("t,pade,exact,abs_error", zip(*rows))):
        return EXIT_USAGE
    worst = max(rows, key=lambda r: r[3])
    print(f"{format_shortest(worst[3])},{format_shortest(worst[0])}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "inverse": _cmd_inverse,
        "coeffs": _cmd_coeffs,
        "scan": _cmd_scan,
        "ode": _cmd_ode,
        "selftest": lambda a: EXIT_NUMERIC if run_selftest() else EXIT_OK,
    }
    try:
        return handlers[args.command](args)
    except MLPadeError as exc:
        print(f"mlpade: {exc}", file=sys.stderr)
        return EXIT_PARAM if isinstance(exc, DomainError) else EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
