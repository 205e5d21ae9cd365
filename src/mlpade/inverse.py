"""Inverse of the degree-2 approximants on (0, 1/Gamma(beta)].

Rather than transcribing the four regime-specific inverse formulas, the
inverse solves the quadratic obtained from the unified rational form

    d2*X^2 + (d1 - n1/y)*X + (1 - n0/y) = 0

with the cancellation-safe quadratic formula: the larger-magnitude root is
evaluated with the sign-matched numerator and the other recovered from the
product of roots, so the small root near the y = 1/Gamma(beta) boundary
keeps full precision. Below about y = 1e-154, where b*b overflows, the same
root is taken from b/a and sqrt(-c/a), which stay finite wherever the root
does.
"""

import math

from .errors import DomainError, ResultOverflowError
from .pade import RationalApprox, build_approx
from .params import _PURE_EXPONENTIAL, MLParams, convert

__all__ = ["inv_pade", "inv_pade_from_approx"]


def inv_pade_from_approx(approx: RationalApprox, y: float) -> float:
    """The one solution X >= 0 of approx(X) = y: A is monotone (see
    RationalApprox). y is a float; a real number or a 0-d array counts as one."""
    n0 = approx.n0
    # the hot case, a float in (0, n0) off the exponential regime, takes one
    # chained test; every other argument takes the branch below
    if not (type(y) is float and 0.0 < y < n0 and approx.regime is not _PURE_EXPONENTIAL):
        y = y if type(y) is float else convert(y, "inv_pade_from_approx", array=False)
        if approx.regime is _PURE_EXPONENTIAL:
            if not 0.0 < y <= 1.0:
                raise DomainError(f"y={y!r} outside (0, 1]")
            return 0.0 - math.log(y)  # +0.0 at y = 1, where -log(y) is -0.0
        if not 0.0 < y <= n0:
            raise DomainError(f"y={y!r} outside (0, {n0!r}]")
        if y == n0:
            # X = 0 is a root since c vanishes identically
            return 0.0
    a = approx.d2
    b = approx.d1 - approx.n1 / y
    c = 1.0 - n0 / y
    # a = d2 > 0 and y < n0 makes c < 0, so disc >= b*b >= 0 in floating
    # point too: no clamp, and no NaN, since 4ac is never +inf
    disc = b * b - 4.0 * a * c
    if disc == math.inf:
        return _root_past_overflow(approx, y)
    sq = math.sqrt(disc)
    # q is never 0: n0/y rounds to >= 1 + 2^-52, so c <= -2^-52 and disc > 0
    q = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    # the roots are q/a and c/q, and c < 0 puts one on each side of 0
    return c / q if b >= 0.0 else q / a


def _root_past_overflow(approx: RationalApprox, y: float) -> float:
    """The nonnegative root where b*b - 4ac overflows.

    With ba = b/a and s = sqrt(-c/a) the root is (hypot(ba, 2s) - ba)/2 for
    ba < 0, and 2s * s/(ba + hypot(ba, 2s)) otherwise; neither forms b*b or
    a*c. Where n0/y overflows, -c = n0/y - 1 is n0/y to double precision, so
    s is sqrt(n0)/sqrt(y)/sqrt(a)."""
    a = approx.d2
    n0_y = approx.n0 / y
    s = (
        math.sqrt(n0_y - 1.0) if n0_y < math.inf
        else math.sqrt(approx.n0) / math.sqrt(y)
    ) / math.sqrt(a)
    ba = approx.d1 / a - approx.n1 / a / y
    h = math.hypot(ba, 2.0 * s)
    x = 0.5 * h - 0.5 * ba if ba < 0.0 else 2.0 * s * (s / (ba + h))
    if x == math.inf:
        raise ResultOverflowError(
            f"the root X of approx(X) = y at y={y!r} overflows a double"
        )
    return x


def inv_pade(params: MLParams, y: float) -> float:
    """Inverse approximant -L_{alpha,beta}(y) for y in (0, 1/Gamma(beta)]."""
    return inv_pade_from_approx(build_approx(params), y)
