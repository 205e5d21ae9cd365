"""Gamma-family and scaled error-function primitives on the `math` module.

Everything downstream routes reciprocal-gamma factors through :func:`rgamma`
so that parameter combinations hitting poles of Gamma produce an exact zero
instead of an overflow or NaN; past Gamma's overflow it returns 0 as well.

`erfcx` and the closed forms are each one expression of a float or a 1-D
array: `piecewise` picks a float's branch or each entry's, and `libm(x)` is
`math` itself for a float and, for an array, each `math` function mapped over
the entries (`libm_map`), so every entry equals the float call bit for bit.
numpy's own exp and expm1 run SIMD loops whose last bits differ from libm's.
"""

import math
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import DomainError
from .params import argument

__all__ = [
    "gamma",
    "rgamma",
    "erfcx",
    "erfcx_series_tail",
    "is_nonpositive_integer",
    "libm_map",
    "piecewise",
    "libm",
]

_SQRT_PI = math.sqrt(math.pi)


def libm_map(fn, v: np.ndarray) -> np.ndarray:
    """The float function fn at every entry of the float array v, in one
    C-level map of float calls: each entry equals fn(entry) bit for bit."""
    return np.fromiter(map(fn, v.tolist()), float, v.size)


# the `math` functions the closed forms call, as they apply to an array
_ARRAY_MATH = SimpleNamespace(
    exp=partial(libm_map, math.exp),
    expm1=partial(libm_map, math.expm1),
    erf=partial(libm_map, math.erf),
    erfc=partial(libm_map, math.erfc),
    floor=np.floor,  # exact, as math.floor is
)


def libm(x):
    """The `math` module for a float x; for an array, its functions mapped."""
    return math if type(x) is float else _ARRAY_MATH


def piecewise(x, pieces, rest):
    """f(x) of the first (condition, f) in `pieces` whose condition holds, else
    rest(x); an f may be a constant. Conditions are bools for a float x and
    masks for an array, which overflows to inf silently, as a float does."""
    if type(x) is float:
        for holds, f in pieces:
            if holds:
                return f(x) if callable(f) else f
        return rest(x)
    out = np.empty(x.shape)
    left = np.ones(x.shape, dtype=bool)
    with np.errstate(over="ignore"):
        for mask, f in pieces:
            take = mask & left
            out[take] = f(x[take]) if callable(f) else f
            left &= ~mask
        out[left] = rest(x[left])
    return out


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


def erfcx(x):
    """Scaled complementary error function exp(x^2)*erfc(x), overflow-free, for
    x in [0, inf]: a float, or a 1-D float array evaluated to the float call's
    value at every entry. Below 26, exp of x^2 = xh^2 + (x - xh)(x + xh) split
    exactly (xh on 20 fractional bits, so xh^2 is exact); from 26 up, 8 terms
    of the asymptotic series in 1/(2x^2), whose 9th term is below 2e-19 there."""
    return _erfcx(argument(x, "erfcx", finite=False))


def _erfcx(x):
    # erfcx of a checked argument, for the closed forms
    return piecewise(x, [(x < 26.0, _erfcx_near)], _erfcx_far)


def _erfcx_near(x):
    m = libm(x)
    xh = m.floor(x * 1048576.0) / 1048576.0
    return m.exp(xh * xh) * m.exp((x - xh) * (x + xh)) * m.erfc(x)


def _erfcx_far(x):
    return (1.0 - erfcx_series_tail(x)) / _SQRT_PI / x


def erfcx_series_tail(x):
    """1 - sqrt(pi)*x*erfcx(x) for x >= 26, a float or an array: the terms of
    erfcx's asymptotic series after its leading 1, v - 3v^2 + 15v^3 - ... +
    135135v^7 with v = 1/(2x^2), summed without the cancellation of the
    difference. Past x = 1.3e154, x*x overflows to inf and v is 0; on an
    array numpy warns of that overflow, except under `piecewise`."""
    v = 0.5 / (x * x)
    return v * (1.0 - v * (3.0 - v * (15.0 - v * (105.0 - v * (
        945.0 - v * (10395.0 - v * 135135.0))))))
