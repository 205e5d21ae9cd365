"""Gamma-family and scaled error-function primitives on the `math` module.

Everything downstream routes reciprocal-gamma factors through :func:`rgamma`
so that parameter combinations hitting poles of Gamma produce an exact zero
instead of an overflow or NaN; past Gamma's overflow it returns 0 as well.

`erfcx` and the closed forms are each one (bounds, pieces) table of
expressions of a float or a 1-D array in non-decreasing order: `piecewise`
picks a float's range or cuts the array into one slice per range, and
`libm(x)` is `math` itself for a float and, for an array, each `math`
function mapped over the entries (`libm_map`), so every entry equals the
float call bit for bit. numpy's own exp and expm1 run SIMD loops whose last
bits differ from libm's.
"""

import math
from bisect import bisect_right
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import DomainError
from .params import argument, restore_order

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
    """The float function fn at every entry of the 1-D float64 array v, in
    native byte order, in one C-level map of float calls over v's buffer (any
    strides, writeable or not), without a list of its entries: each entry
    equals fn(entry) bit for bit."""
    return np.fromiter(map(fn, memoryview(v)), float, v.size)


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


def piecewise(x, bounds, pieces):
    """pieces[i], a function of x or a constant, at x in [bounds[i-1],
    bounds[i]) for increasing bounds: one (bounds, pieces) table, one route
    for a float and an array alike. A float picks its piece by bisection, as
    do an array's two ends, in non-decreasing order: one piece runs on the
    whole array, more on the contiguous slices that one searchsorted cuts.
    Pass a table unpacked: a call with *table is not inlined (0.1 us more)."""
    if type(x) is float:
        f = pieces[bisect_right(bounds, x)]
        return f(x) if callable(f) else f
    i, j = (bisect_right(bounds, x[0]), bisect_right(bounds, x[-1])) if x.size else (0, 0)
    if i == j and callable(pieces[i]):
        return pieces[i](x)
    ends = [0, *x.searchsorted(bounds).tolist(), x.size]
    out = np.empty(x.size)
    for f, a, b in zip(pieces, ends, ends[1:]):
        if a < b:
            out[a:b] = f(x[a:b]) if callable(f) else f
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
    x in [0, inf]: a float, or a 1-D float array or a `GridSpec`'s points
    evaluated to the float call's value at every entry. Below 26, exp of
    x^2 = xh^2 + (x - xh)(x + xh) split exactly (xh on 20 fractional bits, so
    xh^2 is exact); from 26 up, 8 terms of the asymptotic series in 1/(2x^2),
    whose 9th term is below 2e-19 there."""
    x, order = argument(x, "erfcx", finite=False)
    return restore_order(_erfcx(x), order)


def _erfcx(x):
    # erfcx of a checked argument, for the closed forms
    return piecewise(x, _ERFCX[0], _ERFCX[1])


def _erfcx_near(x):
    m = libm(x)
    xh = m.floor(x * 1048576.0) / 1048576.0
    return m.exp(xh * xh) * m.exp((x - xh) * (x + xh)) * m.erfc(x)


def _erfcx_far(x):
    return (1.0 - erfcx_series_tail(x)) / _SQRT_PI / x


_ERFCX = ((26.0,), (_erfcx_near, _erfcx_far))  # erfcx's (bounds, pieces)


def erfcx_series_tail(x):
    """1 - sqrt(pi)*x*erfcx(x) for x >= 26, a float or an array: the terms of
    erfcx's asymptotic series after its leading 1, v - 3v^2 + 15v^3 - ... +
    135135v^7 with v = 1/(2x^2), summed without the cancellation of the
    difference. Past x = 1.3e154, x*x overflows to inf and v is 0, silently
    on an array as on a float."""
    if type(x) is float:
        v = 0.5 / (x * x)
    else:
        with np.errstate(over="ignore"):
            v = 0.5 / (x * x)
    return v * (1.0 - v * (3.0 - v * (15.0 - v * (105.0 - v * (
        945.0 - v * (10395.0 - v * 135135.0))))))
