"""Parity recorder: every float entry point of mlpade on a seeded sweep of
arguments, one line per call, so that two checkouts can be compared bit for
bit.

    PYTHONPATH=<checkout>/src python tests/parity.py OUT [--seed N] [--draws N]
    PYTHONPATH=<checkout>/src python tests/parity.py --cli OUT
    diff parent.txt change.txt

Each line is `op <TAB> args <TAB> outcome`: the outcome is the result's type
name and `float.hex` (one per entry for an array; `NoneType None` for None),
or the exception's class name and message. The sweep covers each float entry
point and the oracle's three one-point views in `mlpade.reference`, each kind of
argument (float, np.float64, np.float32, 0-d array, 1-D array, list, str),
the edges of the admission tests (0, -0, subnormals in four decades, the
smallest normal and its neighbour, 1e100 and its successor, 1e300, the
largest double, +-inf, nan, -1, and the inverse's n0 edges), every bound of the oracle's route
tables and the double below it (0.5, 26 and each pair's crossover
40**alpha), seeded log-uniform draws, the relaxation prefactors, valid and
not, and each pair's `error_scan` and `inverse_error_scan` reports on small
grids. Each pair's points past the
oracle's crossover x**(1/alpha) = 40 are then recorded again, as one array and as
floats from the largest down, so that a value which depended on the calls
before it would show, and its seeded draws as one shuffled, one sorted, one
strided (every other shuffled draw) and one read-only array, for `ml_oracle`
and `eval_approx`; `erfcx` records the strided and the read-only array.
`GridSpec` records the points of the CLI's default grids, of grids to the
largest double and of grids whose bounds differ by 1e-12 relative. Each of
these grids, and one whose points are out of order, is then passed to
`ml_oracle` and `eval_approx` of each pair, and one grid to `erfcx`, first
as a `GridSpec` and then as a copy of its points, so the two records of a
grid can be compared. `build_approx` records each pair's regime and the
`float.hex` of n0, n1, d1 and d2, for `PAIRS` and for seeded pairs at the
construction's edges (`approx_pairs`). Only public names, the one-point views and
`mlpade.special.erfcx` are used, so the one file records any checkout. Its name keeps it out of pytest's collection;
`tests/test_public_api.py` records a small sample in-process.

`--cli OUT` records the command line instead: each command of `CLI_COMMANDS`
runs as `python -m mlpade` with the imported package's `src` first on
PYTHONPATH, in a fresh temporary directory, and its line is
`cli <TAB> argv <TAB> outcome`: the exit code, then the escaped bytes of
stdout, stderr and the file at `out.csv` (`None` where none was written).
"""

import argparse
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np

import mlpade as ml
import mlpade.reference
import mlpade.special

ENTRY_POINTS = (
    "GridSpec",
    "build_approx",
    "error_scan",
    "eval_approx",
    "inv_pade",
    "inv_pade_from_approx",
    "inverse_error_scan",
    "ml_oracle",
    "relaxation_exact",
    "relaxation_pade",
    "two_term_exact",
    "two_term_pade",
)
# the oracle's one-point views, imported from mlpade.reference
ONE_POINT_VIEWS = ("ml_asymptotic", "ml_closed_form", "ml_taylor")
# the array primitives of mlpade.special
SPECIAL_FUNCTIONS = ("erfcx",)

PAIRS = [
    (0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0), (1.0, 1.0000001),
    (0.3, 0.9), (0.3, 0.3), (0.9, 1.5), (0.05, 0.7), (0.5, 100.0), (0.9, 170.7),
    (0.8, 0.8),  # the diagonal past 1/2: the approximant is refused
]
RELAXATION_SPECS = [
    (0.5, 1.0, 1.0), (0.3, 1.7, 2.5), (0.45, 0.2, -3.0), (0.01, 1.0, 1.0),
    (0.5, 1e300, 1.0),  # lambda*t^alpha overflows at large t
    (0.5, 1.0, 0.0),
    (0.62, 1.0, 1.0), (0.99, 1.0, 1.0),  # the approximant is refused
]
TWO_TERM_SPECS = [
    (0.25, 0.75, 0.5), (0.1, 0.6, -1.0), (0.3, 0.95, 0.0), (0.01, 0.02, 0.0),
    (0.04, 0.04 + 1e-9, 0.0),  # the matching conditions degenerate
]
PREFACTORS = ("paper", "standard", "classical", ["paper"])

TINY = 2.2250738585072014e-308
# the admission edges, and each bound of the oracle's route tables with the
# double below it: 0.5 and 26 of the closed forms, each pair's crossover 40**alpha
EDGES = [
    0.0, -0.0, 5e-324, 1e-320, 1e-315, 1e-310, math.nextafter(TINY, 0.0), TINY, 1e-3,
    math.nextafter(0.5, 0.0), 0.5, 1.0, math.nextafter(26.0, 0.0), 26.0,
    1e100, math.nextafter(1e100, math.inf), 1e300, sys.float_info.max,
    math.inf, -math.inf, math.nan, -1.0,
] + [v for a in sorted({a for a, _ in PAIRS}) for v in (math.nextafter(40.0**a, 0.0), 40.0**a)]
SCAN_GRID = ml.GridSpec(1e-3, 1e3, 30, include_zero=True)
# GridSpec arguments: the grids of `scan` and `ode --t-grid` by default, two
# grids to the largest double and one whose bounds differ by 1e-12 relative
GRIDS = [
    (1e-4, 1e4, 4000, True), (0.01, 100.0, 200, False),
    (1.0, sys.float_info.max, 5, False), (1e-300, sys.float_info.max, 50, True),
    (1.0, 1.0 + 1e-12, 5, False), (1e-3, 1e-3 * (1.0 + 1e-12), 4, True),
]
# bounds 2 ulps apart, whose interior points round out of order
UNORDERED_GRID = (2.6975570666160433e-283, 2.6975570666160437e-283, 317, False)
KINDS = (np.float64, np.float32, np.array, lambda v: np.array([v]))


def outcome(f, *args) -> str:
    try:
        v = f(*args)
    except Exception as exc:  # the record is the error's class and message
        return f"{type(exc).__name__}: {exc}"
    if v is None:
        return "NoneType None"
    if isinstance(v, np.ndarray):
        return "ndarray " + " ".join(map(float.hex, v.tolist()))
    return f"{type(v).__name__} {float(v).hex()}"


def approx_outcome(pair) -> str:
    """The approximant of a pair: its regime and the `float.hex` of n0, n1, d1
    and d2; or the error's class and message."""
    try:
        a = ml.build_approx(ml.classify(*pair))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"RationalApprox {a.regime.value} " + " ".join(
        map(float.hex, (a.n0, a.n1, a.d1, a.d2)))


def approx_pairs(rng, n: int):
    """n seeded pairs from each family the construction treats apart: the five
    regimes (the diagonal past 1/2 too), b - a from 1 down to 1e-12, alpha
    down to 1e-10 (where the matching conditions degenerate), b - 2a at the
    poles 0 and near -1 of rgamma(b - 2a), and b + a around Gamma's overflow
    at 171.62."""
    u = lambda lo, hi: rng.uniform(lo, hi, n).tolist()
    near_one = (1.0 - 10.0 ** rng.uniform(-12.0, -1.0, n)).tolist()
    return (
        [(a, a + 10.0 ** e) for a, e in zip(u(0.01, 1.0), u(-3.0, 2.2))]
        + [(a, 1.0) for a in u(0.01, 1.0)]
        + [(a, a) for a in u(1e-3, 1.0)]
        + [(1.0, b) for b in u(1.0, 171.0)]
        + [(a, a + 10.0 ** e) for a, e in zip(u(0.01, 1.0), u(-12.0, 0.0))]
        + [(10.0 ** e, b) for e, b in zip(u(-10.0, -2.0), u(0.5, 3.0))]
        + [(a, 2.0 * a) for a in u(0.01, 1.0)]
        + [(a, math.nextafter(a, 2.0) + 10.0 ** e) for a, e in zip(near_one, u(-14.0, -2.0))]
        + [(a, 171.62 - a + d) for a, d in zip(u(0.01, 1.0), u(-0.02, 0.02))]
        + [(1.0, 1.0)]
    )


def report_outcome(f, *args) -> str:
    """A scan's report: its type name, each column as `float.hex` entries,
    then max_abs_error, argmax_x and max_rel_error; or the error's class and
    message."""
    try:
        r = f(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    columns = [" ".join(map(float.hex, c.tolist())) for c in r.columns]
    scalars = [r.max_abs_error, r.argmax_x, r.max_rel_error]
    return "ErrorReport " + " | ".join(
        columns + [repr(v) if v is None else float.hex(v) for v in scalars])


def _grid_arguments(grids):
    """(label, argument): each grid as a `GridSpec`, then a copy of its points."""
    for g in grids:
        yield repr(g), g
        yield f"{g!r}.array.copy()", g.array.copy()


def _arguments(points):
    """Each point as a float, each edge also as every other kind, and one
    list and one str."""
    for v in points:
        yield v
    with np.errstate(over="ignore"):
        for v in EDGES:
            for kind in KINDS:
                yield kind(v)
    yield [1.0]
    yield "1.0"


def records(seed: int = 1, draws: int = 200):
    """(op, args, outcome) for every call of the sweep, in a fixed order."""
    rng = np.random.default_rng(seed)
    xs = EDGES + (10.0 ** rng.uniform(-4.0, 4.0, draws)).tolist()
    ts = EDGES + (10.0 ** rng.uniform(-3.0, 3.0, draws)).tolist()
    fractions = rng.uniform(0.0, 1.0, draws).tolist()
    # the draws as whole arrays, in no order and sorted, then every other
    # shuffled draw as a strided view and the sorted draws read-only
    arrays = {"shuffled": rng.permutation(xs[len(EDGES):]), "sorted": np.sort(xs[len(EDGES):])}
    arrays["strided"] = arrays["shuffled"][::2]
    arrays["read-only"] = arrays["sorted"].copy()
    arrays["read-only"].setflags(write=False)
    grids = [ml.GridSpec(*grid) for grid in GRIDS + [UNORDERED_GRID]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for grid in GRIDS:
            yield "GridSpec", repr(grid), outcome(lambda: ml.GridSpec(*grid).array)
        for name in ("strided", "read-only"):
            yield "erfcx", f"{name} draws", outcome(mlpade.special.erfcx, arrays[name])
        for label, g in _grid_arguments(grids[3:4]):
            yield "erfcx", label, outcome(mlpade.special.erfcx, g)
        for pair in PAIRS:
            params = ml.classify(*pair)
            for x in _arguments(xs):
                yield "ml_oracle", f"{pair}, {x!r}", outcome(ml.ml_oracle, params, x)
            # the series-region points again, as one array and then as floats
            # from the largest x down, after the sweep has built on the pair
            far = sorted((x for x in xs if 40.0 ** pair[0] <= x < math.inf), reverse=True)
            yield "ml_oracle", f"{pair}, array({far!r})", outcome(ml.ml_oracle, params, np.array(far))
            for x in far:
                yield "ml_oracle", f"{pair}, {x!r} again", outcome(ml.ml_oracle, params, x)
            for name, a in arrays.items():
                yield "ml_oracle", f"{pair}, {name} draws", outcome(ml.ml_oracle, params, a)
            for label, g in _grid_arguments(grids):
                yield "ml_oracle", f"{pair}, {label}", outcome(ml.ml_oracle, params, g)
            for view in ONE_POINT_VIEWS:
                f = getattr(mlpade.reference, view)
                for x in _arguments(xs):
                    yield view, f"{pair}, {x!r}", outcome(f, params, x)
            yield "error_scan", f"{pair}, {SCAN_GRID}", report_outcome(ml.error_scan, params, SCAN_GRID)
            top = ml.ml_oracle(params, 0.0)
            y_grid = ml.GridSpec(1e-3 * top, top, 8)
            yield "inverse_error_scan", f"{pair}, {y_grid}", report_outcome(
                ml.inverse_error_scan, params, y_grid)
            try:
                approx = ml.build_approx(params)
            except ml.ConstructionError:
                for y in _arguments([0.5]):
                    yield "inv_pade", f"{pair}, {y!r}", outcome(ml.inv_pade, params, y)
                continue
            n0 = approx.n0
            ys = [n0, math.nextafter(n0, 0.0), 1e-300 * n0, 2.0 * n0]
            ys += [u * n0 for u in fractions]
            for x in _arguments(xs):
                yield "eval_approx", f"{pair}, {x!r}", outcome(ml.eval_approx, approx, x)
            for name, a in arrays.items():
                yield "eval_approx", f"{pair}, {name} draws", outcome(ml.eval_approx, approx, a)
            for label, g in _grid_arguments(grids):
                yield "eval_approx", f"{pair}, {label}", outcome(ml.eval_approx, approx, g)
            for y in _arguments(ys):
                args = f"{pair}, {y!r}"
                yield "inv_pade", args, outcome(ml.inv_pade, params, y)
                yield "inv_pade_from_approx", args, outcome(ml.inv_pade_from_approx, approx, y)
        for s in RELAXATION_SPECS:
            spec = ml.RelaxationSpec(*s)
            for t in _arguments(ts):
                for prefactor in PREFACTORS:
                    args = f"{s}, {t!r}, {prefactor!r}"
                    yield "relaxation_pade", args, outcome(ml.relaxation_pade, spec, t, prefactor)
                    yield "relaxation_exact", args, outcome(ml.relaxation_exact, spec, t, prefactor)
        for s in TWO_TERM_SPECS:
            spec = ml.TwoTermSpec(*s)
            for t in _arguments(ts):
                args = f"{s}, {t!r}"
                yield "two_term_pade", args, outcome(ml.two_term_pade, spec, t)
                yield "two_term_exact", args, outcome(ml.two_term_exact, spec, t)
        # last, from a stream of their own, so the records above keep their draws
        for pair in PAIRS + approx_pairs(np.random.default_rng([seed, 2]), max(draws // 4, 1)):
            yield "build_approx", repr(pair), approx_outcome(pair)


ODE_RELAX = ("ode", "--relaxation", "--alpha", "0.4", "--t-grid", "0.1:10:5")
ODE_TWO = ("ode", "--two-term", "--alpha", "0.25", "--beta", "0.75", "--t-grid", "0.1:10:5")
CLI_COMMANDS = [
    # acceptance criterion 8
    ("eval", "--alpha", "0.5", "--beta", "1.5", "--x", "3.7"),
    ("eval", "--alpha", "0.3", "--beta", "0.9", "--x", "12", "--exact"),
    ("inverse", "--alpha", "0.5", "--beta", "1", "--y", "0.25"),
    ("coeffs", "--table1"),
    ("scan", "--alpha", "0.5", "--beta", "1", "--points", "200", "--csv", "out.csv"),
    ("ode", "--two-term", "--alpha", "0.25", "--beta", "0.75", "--t-grid", "0.1:10:30",
     "--csv", "out.csv"),
    ("selftest",),
    # the oracle on the contour, on the series, in closed form and at x = 0
    ("eval", "--alpha", "0.3", "--beta", "0.9", "--x", "2", "--exact"),
    ("eval", "--alpha", "0.3", "--beta", "0.9", "--x", "1000", "--exact"),
    ("eval", "--alpha", "0.5", "--beta", "1.5", "--x", "3", "--exact"),
    ("eval", "--alpha", "0.3", "--beta", "0.9", "--x", "0", "--exact"),
    ("eval", "--alpha", "0.3", "--beta", "0.9", "--x", "-1", "--exact"),
    ("scan", "--alpha", "0.3", "--beta", "0.9", "--csv", "out.csv"),
    ("ode", "--relaxation", "--alpha", "0.3", "--lambda", "1.5", "--c1", "0.7",
     "--prefactor", "standard", "--csv", "out.csv"),
    ODE_RELAX,
    ODE_TWO,
    ("coeffs", "--alpha", "0.3", "--beta", "0.9"),
    ("ode", "--help"),
    ("coeffs", "--help"),
    # options an equation or --table1 does not take
    ODE_RELAX + ("--beta", "0.9"),
    ODE_RELAX + ("--beta", "nan"),
    ODE_RELAX + ("--c2", "0.5"),
    ODE_RELAX + ("--c2", "inf"),
    ODE_TWO + ("--lambda", "7", "--c1", "9"),
    ODE_TWO + ("--lambda", "nan"),
    ODE_TWO + ("--c1", "2"),
    ODE_TWO + ("--c1", "nan"),
    ODE_TWO + ("--prefactor", "paper"),
    ("coeffs", "--table1", "--alpha", "0.3", "--beta", "0.9"),
    # ... with a second fault, which each command reports as before
    ("ode", "--relaxation", "--alpha", "1.5", "--beta", "0.9", "--t-grid", "0.1:10:5"),
    ("ode", "--relaxation", "--alpha", "0.8", "--c2", "1", "--t-grid", "0.1:10:5"),
    ("ode", "--relaxation", "--alpha", "0.4", "--lambda", "nan", "--beta", "0.9"),
    ODE_RELAX[:-1] + ("nonsense", "--c2", "1"),
    ("ode", "--two-term", "--alpha", "0.25", "--lambda", "7"),
    ("ode", "--two-term", "--alpha", "0.75", "--beta", "0.25", "--lambda", "7"),
    ("ode", "--two-term", "--alpha", "0.25", "--beta", "0.75", "--c2", "nan", "--c1", "9"),
    ODE_TWO + ("--prefactor", "paper", "--lambda", "7"),
    ODE_RELAX + ("--beta", "0.9", "--csv", "missing/out.csv"),
    # grids to the largest double
    ("scan", "--alpha", "0.3", "--beta", "0.9", "--grid-min", "1e-300", "--grid-max",
     "1.7976931348623157e308", "--points", "50"),
    ("ode", "--relaxation", "--alpha", "0.3", "--t-grid", "1:1.7976931348623157e308:5"),
    # a grid whose points are out of order
    ("scan", "--alpha", "0.3", "--beta", "0.9", "--grid-min", "2.6975570666160433e-283",
     "--grid-max", "2.6975570666160437e-283", "--points", "317", "--csv", "out.csv"),
]


def cli_records():
    """("cli", argv, outcome) for each command of `CLI_COMMANDS`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlpade.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in CLI_COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            r = subprocess.run([sys.executable, "-m", "mlpade", *argv], cwd=tmp, env=env,
                               capture_output=True, timeout=300)
            csv = pathlib.Path(tmp, "out.csv")
            data = csv.read_bytes() if csv.exists() else None
        yield "cli", " ".join(argv), f"exit {r.returncode} {r.stdout!r} {r.stderr!r} {data!r}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", help="file to write the value sweep's records to")
    ap.add_argument("--cli", metavar="OUT", help="file to write the CLI records to")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--draws", type=int, default=200, help="seeded points per argument axis")
    args = ap.parse_args(argv)
    if not (args.out or args.cli):
        ap.error("give OUT, --cli OUT or both")
    for out, recs in [(args.out, records(args.seed, args.draws)), (args.cli, cli_records())]:
        if out is None:
            continue
        n = 0
        with open(out, "w", encoding="utf-8") as fh:
            for record in recs:
                fh.write("\t".join(record) + "\n")
                n += 1
        print(f"{n} records written to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
