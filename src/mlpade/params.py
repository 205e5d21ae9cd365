"""Parameter validation for E_{alpha,beta}(-x), and the argument conversion,
x >= 0 test and ordering shared by the evaluators.

The approximation construction splits into five mutually exclusive regimes
inside the complete-monotonicity region {0 < alpha <= 1, beta >= alpha},
and the pair alone decides which: `MLParams` stores only (alpha, beta), and
refuses a pair outside the region however it is made.
"""

import enum
import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterDomainError

__all__ = ["Regime", "MLParams", "classify", "convert", "argument", "restore_order"]

# the bound of each per-pair memo (build_approx's approximants, the oracle's
# pair entries): a caller evaluates, inverts or scans one pair many times, and
# each entry depends on (alpha, beta) alone. Scans of 93 pairs in turn never
# hit a memo of 32. An entry in both memos takes about 4 KB: the first 128
# pairs of scan-grid's pools (seeds 1 to 3), each scanned once, with series
# tables of up to 241 terms, held 517 KB
_PAIR_MEMO_SIZE = 128


class Regime(enum.Enum):
    GENERAL_SUB = "general"           # 0 < alpha < 1, beta > alpha, beta != 1
    BETA_ONE = "beta_one"             # 0 < alpha < 1, beta = 1
    DIAGONAL = "diagonal"             # 0 < alpha = beta < 1
    ALPHA_ONE = "alpha_one"           # alpha = 1, beta > 1
    PURE_EXPONENTIAL = "exponential"  # alpha = beta = 1


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
            return Regime.PURE_EXPONENTIAL if beta == 1.0 else Regime.ALPHA_ONE
        if beta == alpha:
            return Regime.DIAGONAL
        return Regime.BETA_ONE if beta == 1.0 else Regime.GENERAL_SUB


def classify(alpha: float, beta: float) -> MLParams:
    """Validate (alpha, beta) as an `MLParams`.

    Raises ParameterDomainError outside {0 < alpha <= 1, beta >= alpha}.
    """
    return MLParams(alpha, beta)


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
    `array`, a 1-D float64 array (see `convert`) put in non-decreasing order
    by `order`, None or a stable argsort. nan fails the order test and sorts
    last, so the value test reads the two ends. Raises DomainError naming `op`
    and the caller's first bad value unless each is >= 0 and, if `finite`, finite."""
    x = y = convert(x, op, array)
    order = None
    # out of order when fewer than all x.size - 1 neighbour pairs are in order;
    # np.count_nonzero takes half the time of a logical_and reduction
    if type(x) is not float and np.count_nonzero(np.greater_equal(x[1:], x[:-1])) < x.size - 1:
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
