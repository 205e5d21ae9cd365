"""Error scans of the approximants against the reference oracle.

The forward scan measures |A(x) - E_{alpha,beta}(-x)| over a grid; the
inverse scan measures the distance between the algebraic inverse of the
approximant and the true functional inverse obtained by bisecting the
oracle. Reports serialize deterministically to CSV or a one-line summary.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, DomainError
from .inverse import inv_pade_from_approx
from .pade import build_approx, eval_approx
from .params import MLParams
from .reference import ml_oracle
from .special import rgamma

__all__ = [
    "GridSpec",
    "ErrorReport",
    "DEFAULT_GRID",
    "error_scan",
    "inverse_error_scan",
    "emit_report",
    "format_shortest",
]


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_points: int
    include_zero: bool = False

    def __post_init__(self):
        if not (0.0 < self.x_min < self.x_max < math.inf):
            raise DomainError(
                f"need finite 0 < x_min < x_max, got ({self.x_min!r}, {self.x_max!r})"
            )
        if not (isinstance(self.n_points, numbers.Integral) and self.n_points >= 2):
            raise DomainError(f"need an integer n_points >= 2, got {self.n_points!r}")

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The log-spaced grid points as one read-only float array, built on
        first use."""
        pts = np.geomspace(self.x_min, self.x_max, self.n_points)
        if self.include_zero:
            pts = np.concatenate(([0.0], pts))
        pts.flags.writeable = False
        return pts

    def points(self) -> list[float]:
        return self.array.tolist()


DEFAULT_GRID = GridSpec(1e-4, 1e4, 4000, include_zero=True)


@dataclass(frozen=True)
class ErrorReport:
    params: MLParams
    grid: GridSpec
    max_abs_error: float
    argmax_x: float
    samples: list = field(repr=False)
    max_rel_error: float | None = None


def error_scan(params: MLParams, grid: GridSpec = DEFAULT_GRID) -> ErrorReport:
    """Tabulate |approximant - oracle| over the grid, in one array pass."""
    xs = grid.array
    approx = eval_approx(build_approx(params), xs)
    oracle = ml_oracle(params, xs)
    err = np.abs(approx - oracle)
    samples = list(zip(xs.tolist(), approx.tolist(), oracle.tolist(), err.tolist()))
    worst = samples[int(np.argmax(err))]
    return ErrorReport(params, grid, worst[3], worst[0], samples)


def _bisect_inverse(params, y, y_tol=1e-10):
    """True inverse of the oracle at y, by bracketing bisection."""
    lo, y_lo = 0.0, rgamma(params.beta)
    if y > y_lo:
        raise BracketError(f"y={y!r} exceeds the value at 0")
    if y == y_lo:
        return 0.0
    hi = 1.0
    y_hi = ml_oracle(params, hi)
    while y_hi > y:
        lo, y_lo = hi, y_hi
        hi *= 4.0
        if hi > 1e15:
            raise BracketError(f"could not bracket the inverse of y={y!r}")
        y_hi = ml_oracle(params, hi)
    for _ in range(200):
        if y_lo - y_hi <= y_tol or (hi - lo) <= 1e-15 * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        y_mid = ml_oracle(params, mid)
        if y_mid > y:
            lo, y_lo = mid, y_mid
        else:
            hi, y_hi = mid, y_mid
    return 0.5 * (lo + hi)


def inverse_error_scan(params: MLParams, y_grid: GridSpec) -> ErrorReport:
    """Compare the algebraic inverse against bisection on the oracle.

    Grid points are interpreted on the y axis and must lie inside
    (0, 1/Gamma(beta)]. Reports both max |dx| and max |dx|/(1+x).
    """
    hi = rgamma(params.beta)
    if y_grid.x_max > hi * (1.0 + 1e-12):
        raise DomainError(f"y grid exceeds the inverse domain bound {hi!r}")
    approx = build_approx(params)
    samples = []
    max_rel = 0.0
    for y in y_grid.points():
        if y == 0.0:
            continue
        y = min(y, hi)
        x_alg = inv_pade_from_approx(approx, y)
        x_true = _bisect_inverse(params, y)
        err = abs(x_alg - x_true)
        samples.append((y, x_alg, x_true, err))
        max_rel = max(max_rel, err / (1.0 + x_true))
    worst = max(samples, key=lambda s: s[3])
    return ErrorReport(params, y_grid, worst[3], worst[0], samples, max_rel)


def format_shortest(v: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def emit_report(report: ErrorReport, fmt: str = "csv") -> bytes:
    """Serialize a report: csv columns x,approx,oracle,abs_error, or a
    one-line summary alpha,beta,max_abs_error,argmax_x."""
    if fmt == "csv":
        lines = ["x,approx,oracle,abs_error"]
        for x, a, o, e in report.samples:
            lines.append(
                f"{format_shortest(x)},{format_shortest(a)},"
                f"{format_shortest(o)},{format_shortest(e)}"
            )
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt == "summary":
        p = report.params
        return (
            f"{format_shortest(p.alpha)},{format_shortest(p.beta)},"
            f"{format_shortest(report.max_abs_error)},"
            f"{format_shortest(report.argmax_x)}\n"
        ).encode("ascii")
    raise DomainError(f"unknown report format {fmt!r}")
