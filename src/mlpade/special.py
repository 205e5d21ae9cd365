"""Gamma-family and scaled error-function primitives on the `math` module.

Everything downstream routes reciprocal-gamma factors through :func:`rgamma`
so that parameter combinations hitting poles of Gamma produce an exact zero
instead of an overflow or NaN; past Gamma's overflow it returns 0 as well.
"""

import math

from .errors import DomainError

__all__ = ["gamma", "rgamma", "erfcx", "erfcx_series_tail", "is_nonpositive_integer"]

_SQRT_PI = math.sqrt(math.pi)


def is_nonpositive_integer(x: float) -> bool:
    """Exact binary test: x is one of 0, -1, -2, ..."""
    return math.isfinite(x) and x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function. Raises DomainError at nonpositive integers; inf past overflow."""
    if is_nonpositive_integer(x):
        raise DomainError(f"gamma pole at x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); entire, exactly 0 at nonpositive integers,
    0 past overflow and +-inf where Gamma underflows to +-0."""
    if is_nonpositive_integer(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2)*erfc(x), overflow-free, for
    x >= 0. Below 26, exp of x^2 = xh^2 + (x - xh)(x + xh) split exactly (xh on
    20 fractional bits, so xh^2 is exact); from 26 up, 8 terms of the asymptotic
    series in 1/(2x^2), whose 9th term is below 2e-19 there."""
    if x < 0.0:
        raise DomainError(f"erfcx requires x >= 0, got {x!r}")
    if x < 26.0:
        xh = math.floor(x * 1048576.0) / 1048576.0
        return math.exp(xh * xh) * math.exp((x - xh) * (x + xh)) * math.erfc(x)
    return (1.0 - erfcx_series_tail(x)) / _SQRT_PI / x


def erfcx_series_tail(x: float) -> float:
    """1 - sqrt(pi)*x*erfcx(x) for x >= 26: the terms of erfcx's asymptotic
    series after its leading 1, v - 3v^2 + 15v^3 - ... + 135135v^7 with
    v = 1/(2x^2), summed without the cancellation of the difference."""
    v = 0.5 / (x * x)
    return v * (1.0 - v * (3.0 - v * (15.0 - v * (105.0 - v * (
        945.0 - v * (10395.0 - v * 135135.0))))))
