"""Parameter validation for E_{alpha,beta}(-x), the log-spaced grid of a scan,
and the argument conversion, x >= 0 test and ordering shared by the
evaluators.

The approximation construction splits into five mutually exclusive regimes
inside the complete-monotonicity region {0 < alpha <= 1, beta >= alpha},
and the pair alone decides which: `MLParams` stores only (alpha, beta), and
refuses a pair outside the region however it is made.
"""

import enum
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterDomainError

__all__ = ["Regime", "MLParams", "classify", "GridSpec", "convert", "argument", "restore_order"]

# the bounds of the two per-pair memos, the oracle's pair entries
# (`reference._pair_table`) and build_approx's approximants: a caller
# evaluates, inverts or scans one pair many times, and each entry depends on
# (alpha, beta) alone. A sweep that cycles through more pairs than a memo's
# bound never hits it, so each bound is set by the memory its entries take.
# An oracle entry takes about 4 KB: the first 128 pairs of scan-grid's pools
# (seeds 1 to 3), each scanned once, with series tables of up to 241 terms,
# held 517 KB. Scans of 93 pairs in turn never hit a memo of 32
_PAIR_MEMO_SIZE = 128
# An approximant entry takes about 0.44 KB: a full memo of 1024 held 446 KB
# (tracemalloc; each pair classified by the caller and dropped, so an entry is
# the MLParams key and its floats, the RationalApprox and its four, and the
# cache's link and table slot). The oracle memo's 517 KB would hold about 1180
# of them, and the power of two below that is the bound. approx-hot builds
# 363 or 364 pairs per pass (its 357 request pairs and the ODE solutions'
# pairs), which a bound of 128 missed on every pass
_APPROX_MEMO_SIZE = 1024


class Regime(enum.Enum):
    GENERAL_SUB = "general"           # 0 < alpha < 1, beta > alpha, beta != 1
    BETA_ONE = "beta_one"             # 0 < alpha < 1, beta = 1
    DIAGONAL = "diagonal"             # 0 < alpha = beta < 1
    ALPHA_ONE = "alpha_one"           # alpha = 1, beta > 1
    PURE_EXPONENTIAL = "exponential"  # alpha = beta = 1


# the regimes as module constants for the regime tests of the hot paths; an
# attribute lookup on the Enum class would cost about 0.1 us, a third of a
# float evaluation
_GENERAL_SUB = Regime.GENERAL_SUB
_BETA_ONE = Regime.BETA_ONE
_DIAGONAL = Regime.DIAGONAL
_ALPHA_ONE = Regime.ALPHA_ONE
_PURE_EXPONENTIAL = Regime.PURE_EXPONENTIAL


class _Pair(NamedTuple):
    alpha: float
    beta: float


class MLParams(_Pair):
    """A parameter pair inside the region. Every way to make one (the
    constructor, `classify`, `_make`, `_replace`) validates the pair."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float):
        alpha = float(alpha)
        beta = float(beta)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ParameterDomainError(f"non-finite parameters ({alpha!r}, {beta!r})")
        if not (0.0 < alpha <= 1.0 and beta >= alpha):
            raise ParameterDomainError(
                f"(alpha={alpha!r}, beta={beta!r}) outside the region "
                "0 < alpha <= 1, beta >= alpha"
            )
        return tuple.__new__(cls, (alpha, beta))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def regime(self) -> Regime:
        """The pair's unique regime, from the pair alone."""
        alpha, beta = self
        if alpha == 1.0:
            return _PURE_EXPONENTIAL if beta == 1.0 else _ALPHA_ONE
        if beta == alpha:
            return _DIAGONAL
        return _BETA_ONE if beta == 1.0 else _GENERAL_SUB


def classify(alpha: float, beta: float) -> MLParams:
    """Validate (alpha, beta) as an `MLParams`.

    Raises ParameterDomainError outside {0 < alpha <= 1, beta >= alpha}.
    """
    return MLParams(alpha, beta)


@dataclass(frozen=True)
class GridSpec:
    """A log-spaced grid. `array`, built with the spec, holds
    np.geomspace(x_min, x_max, n_points) bit for bit (after a leading 0.0
    under include_zero), on which `scan` CSV and `ode --t-grid` bytes rest:
    geomspace's steps without its generic entry path, done in place in one
    array, and 10 raised only to the interior exponents, so a grid to the
    largest double does not overflow. `array` is a read-only view of a bytes
    copy of the points, which cannot be made writeable again.

    `ordered` records whether the points are in non-decreasing order: they
    run from 0.0 or x_min to x_max, but where the bounds are a few ulps apart
    neighbouring interior points can round out of order. `argument` takes a
    grid as its points, and an ordered grid, finite and >= 0 by construction,
    without a further test."""

    x_min: float
    x_max: float
    n_points: int
    include_zero: bool = False

    def __post_init__(self):
        if not (0.0 < self.x_min < self.x_max < math.inf):
            raise DomainError(
                f"need finite 0 < x_min < x_max, got ({self.x_min!r}, {self.x_max!r})"
            )
        n = self.n_points
        if not ((type(n) is int or isinstance(n, numbers.Integral)) and n >= 2):
            raise DomainError(f"need an integer n_points >= 2, got {n!r}")
        k = 1 if self.include_zero else 0
        lo, hi = np.log10(float(self.x_min)), np.log10(float(self.x_max))
        # the exponents lo + j*step, j = -k..n-1; j = -1 is the leading 0.0's place
        pts = np.arange(-k, n, dtype=float)
        step = (hi - lo) / (n - 1)
        pts *= step
        pts += lo
        np.power(10.0, pts[k + 1:-1], out=pts[k + 1:-1])
        pts[k], pts[-1] = self.x_min, self.x_max
        if k:
            pts[0] = 0.0
        # A step above 1e-12 (log10 units) proves the order. Rounding is
        # monotone, so the exponents fl(fl(j*step) + lo) never decrease, and
        # each lies within 2**-53 * (|j*step| + |e|) < 1.1e-13 of lo + j*step,
        # as |log10 x| <= 323.31 for every positive double: neighbours differ
        # by more than step - 2.2e-13, and 10**e, a few ulps off (1e-15 in
        # log10 units), keeps them in order. The pinned ends: log10 of a bound
        # is a few ulps (< 2.3e-13) off, and (n-1)*step within 2**-52 *
        # |hi - lo| < 1.5e-13 of hi - lo, so the end gaps exceed step - 5e-13.
        # Smaller steps take the neighbour test.
        object.__setattr__(self, "ordered", bool(step > 1e-12 or _in_order(pts)))
        object.__setattr__(self, "array", np.frombuffer(pts.tobytes()))

    def points(self) -> list[float]:
        return self.array.tolist()


def _in_order(x) -> bool:
    # in order when all x.size - 1 neighbour pairs are; np.count_nonzero takes
    # half the time of a logical_and reduction
    return np.count_nonzero(np.greater_equal(x[1:], x[:-1])) == x.size - 1


def convert(x, op: str, array: bool = True):
    """x as a float (a real number or a 0-d array counts as one) or, if
    `array`, a 1-D float64 array. Raises DomainError naming `op` for any other
    kind; the range of the value is each op's own test."""
    if type(x) is float:
        return x
    if isinstance(x, np.ndarray) and x.ndim and array:
        if x.ndim != 1:
            raise DomainError(f"{op} takes a float or a 1-D array, got shape {x.shape}")
        return np.asarray(x, dtype=np.float64)
    if not isinstance(x, (numbers.Real, np.ndarray)) or np.ndim(x):
        kind = "a float or a 1-D array" if array else "a float"
        raise DomainError(f"{op} takes {kind}, got {type(x).__name__}")
    return float(x)


def argument(x, op: str, *, array: bool = True, finite: bool = True):
    """(x, order): x converted as the argument of an x-op `op`, a float or, if
    `array`, a 1-D float64 array (see `convert`) or a `GridSpec`'s points, put
    in non-decreasing order by `order`, None or a stable argsort. An ordered
    grid's points return at once, with order None; an unordered grid's are
    tested as any array. nan fails the order test and sorts last, so the value
    test reads the two ends. Raises DomainError naming `op` and the caller's
    first bad value unless each is >= 0 and, if `finite`, finite."""
    if type(x) is GridSpec and array:
        if x.ordered:
            return x.array, None
        x = x.array
    x = y = convert(x, op, array)
    order = None
    if type(x) is not float and not _in_order(x):
        order = x.argsort(kind="stable")
        y = x[order]
    lo, hi = (y, y) if type(y) is float else (y[0], y[-1]) if y.size else (0.0, 0.0)
    if lo >= 0.0 and (hi < math.inf if finite else hi == hi):
        return y, order
    bad = x if type(x) is float else float(x[~((x >= 0.0) & (np.isfinite(x) | (not finite)))][0])
    raise DomainError(f"{op} requires {'finite ' if finite else ''}x >= 0, got {bad!r}")


def restore_order(values, order):
    """`values`, a new array at an argument ordered by `order`, back in the caller's order."""
    if order is not None:
        values[order] = values.copy()
    return values
