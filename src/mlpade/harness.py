"""Error scans of the approximants against the reference oracle.

The forward scan measures |A(x) - E_{alpha,beta}(-x)| over a grid; the
inverse scan measures the distance between the algebraic inverse of the
approximant and the true functional inverse obtained by bisecting the
oracle. A report keeps the scan's four columns as read-only, C-contiguous
float64 arrays and its worst point; its per-point `samples` rows are built on
each read, never kept.
Reports serialize deterministically to CSV, formatted from the columns, or to
a one-line summary.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError
from .inverse import inv_pade_from_approx
from .pade import build_approx, eval_approx
from .params import GridSpec, MLParams
from .reference import ml_oracle
from .special import rgamma

__all__ = [
    "ErrorReport",
    "DEFAULT_GRID",
    "error_scan",
    "inverse_error_scan",
    "emit_report",
    "format_shortest",
]


DEFAULT_GRID = GridSpec(1e-4, 1e4, 4000, include_zero=True)


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """A scan's result. `columns` holds the four read-only float64 columns:
    x, approx, oracle and abs_error, or y, x_approx, x_true and abs_error
    for an inverse scan (the report with a max_rel_error). Two reports are
    equal when every field and every column entry are."""

    params: MLParams
    grid: GridSpec
    max_abs_error: float
    argmax_x: float
    columns: tuple = field(repr=False)
    max_rel_error: float | None = None

    @property
    def samples(self) -> list:
        """The rows as tuples of four floats, built from the columns on each
        read, never kept; the scan and its summary never read them."""
        x, approx, oracle, err = self.columns
        return list(zip(x.tolist(), approx.tolist(), oracle.tolist(), err.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _scalars(self) == _scalars(other) and all(
            a is b or np.array_equal(a, b) for a, b in zip(self.columns, other.columns)
        )


_scalars = operator.attrgetter("params", "grid", "max_abs_error", "argmax_x", "max_rel_error")


def _report(params, grid, columns, max_rel_error=None) -> ErrorReport:
    """The report of four float64 columns, each made read-only; its worst
    point is the first entry of the largest abs_error."""
    for c in columns:
        c.setflags(write=False)
    err = columns[3]
    i = err.argmax()
    return ErrorReport(params, grid, err.item(i), columns[0].item(i), columns, max_rel_error)


def error_scan(params: MLParams, grid: GridSpec = DEFAULT_GRID) -> ErrorReport:
    """Tabulate |approximant - oracle| over the grid, in one array pass:
    `eval_approx` and `ml_oracle` each take the grid itself, which an ordered
    grid spares their argument tests. The x column is `grid.array`."""
    approx = eval_approx(build_approx(params), grid)
    oracle = ml_oracle(params, grid)
    err = approx - oracle
    return _report(params, grid, (grid.array, approx, oracle, np.abs(err, out=err)))


def _bisect_inverse(params, y):
    """True inverse of the oracle at y in (0, 1/Gamma(beta)], by bracketing
    bisection until the bracket's values differ by at most 1e-10."""
    lo, y_lo = 0.0, rgamma(params.beta)
    if y == y_lo:
        return 0.0
    hi = 1.0
    y_hi = ml_oracle(params, hi)
    while y_hi > y:
        lo, y_lo = hi, y_hi
        hi *= 4.0
        if hi > 1e15:
            raise NonConvergenceError(f"could not bracket the inverse of y={y!r}")
        y_hi = ml_oracle(params, hi)
    for _ in range(200):
        if y_lo - y_hi <= 1e-10 or (hi - lo) <= 1e-15 * (1.0 + hi):
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

    Known defect: the bisection stops at a bracket 1e-10 wide in y, absolute.
    At (0.3, 0.9), y = 1e-4/Gamma(0.9) it is 4.2e-4 off the root and the
    algebraic inverse 6.3e-6 off, so the error reported is the bisection's.
    """
    approx = build_approx(params)  # a pair past Gamma's overflow fails here, naming it
    hi = rgamma(params.beta)
    if y_grid.include_zero or y_grid.x_max > hi * (1.0 + 1e-12):
        raise DomainError(f"y grid must lie inside the inverse domain (0, {hi!r}]")
    ys = np.minimum(y_grid.array, hi)
    x_alg, x_true = np.empty_like(ys), np.empty_like(ys)
    for i, y in enumerate(ys.tolist()):
        x_alg[i] = inv_pade_from_approx(approx, y)
        x_true[i] = _bisect_inverse(params, y)
    err = np.abs(x_alg - x_true)
    max_rel = float(np.max(err / (1.0 + x_true)))
    return _report(params, y_grid, (ys, x_alg, x_true, err), max_rel)


def format_shortest(v: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(v)).removesuffix(".0")


def _csv(header: str, columns) -> bytes:
    """The one CSV format of `scan --csv` and `ode --csv`: the header, then
    one line per row of the columns, its values in `format_shortest`'s form
    joined by commas, each line ended by a newline, in ASCII. Each column is
    formatted in one pass, without a call per value."""
    cells = [[s.removesuffix(".0") for s in map(repr, map(float, c))] for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells)), ""]).encode("ascii")


def emit_report(report: ErrorReport, fmt: str = "csv") -> bytes:
    """Serialize a report: csv columns x,approx,oracle,abs_error, or a
    one-line summary alpha,beta,max_abs_error,argmax_x.

    An inverse_error_scan report (the one with a max_rel_error) has csv
    columns y,x_approx,x_true,abs_error, and its summary's fourth field is
    the worst point's y.
    """
    if fmt == "csv":
        inverse = report.max_rel_error is not None
        header = "y,x_approx,x_true,abs_error" if inverse else "x,approx,oracle,abs_error"
        return _csv(header, (c.tolist() for c in report.columns))
    if fmt == "summary":
        p = report.params
        return (
            f"{format_shortest(p.alpha)},{format_shortest(p.beta)},"
            f"{format_shortest(report.max_abs_error)},"
            f"{format_shortest(report.argmax_x)}\n"
        ).encode("ascii")
    raise DomainError(f"unknown report format {fmt!r}")
