"""Gamma-family and scaled error-function primitives on the `math` module.

Everything downstream routes reciprocal-gamma factors through :func:`rgamma`
so that parameter combinations hitting poles of Gamma produce an exact zero
instead of an overflow or NaN; past Gamma's overflow it returns 0 as well.

`erfcx` and the closed forms are each one (bounds, pieces) table of
expressions of a float or a 1-D array in non-decreasing order: `piecewise`
picks a float's range or cuts the array into one slice per range, so every
entry equals the float call bit for bit. Below x = 26 erfcx is arithmetic on a
40-term `horner` polynomial, 4 times faster on an array than libm mapped over
it and 0.7 us slower on a float. Elsewhere `libm(x)` is `math` for a float
and, for an array, each `math` function mapped over the entries (`libm_map`):
numpy's own exp and expm1 run SIMD loops whose last bits differ from libm's.
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
    "horner",
    "piecewise",
    "libm",
]

_SQRT_PI = math.sqrt(math.pi)
_RSQRT_PI = 1.0 / _SQRT_PI


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
)


def libm(x):
    """The `math` module for a float x; for an array, its functions mapped."""
    return math if type(x) is float else _ARRAY_MATH


def horner(coefs):
    """The polynomial with coefficients coefs (finite, two or more, highest
    power first) as a function of a float or an array z: straight-line Horner
    steps, in place on one new array for an array, whose entries take the
    float's + and * in order; a loop costs 40 terms 0.4 us more on a float."""
    steps = "".join(f"    p *= z; p += {c!r}\n" for c in coefs[2:])
    ns = {}
    exec(f"def poly(z):\n    p = {coefs[0]!r} * z + {coefs[1]!r}\n{steps}    return p\n", ns)
    return ns["poly"]


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
    evaluated to the float call's value at every entry. Below 26, Weideman's
    series (SIAM J. Numer. Anal. 31 (1994)) at N = 40, within 9e-16 relative;
    from 26 up, 8 terms of the asymptotic series in 1/(2x^2), whose 9th term
    is below 2e-19 there."""
    x, order = argument(x, "erfcx", finite=False)
    return restore_order(_erfcx(x), order)


def _erfcx(x):
    # erfcx of a checked argument, for the closed forms
    return piecewise(x, _ERFCX[0], _ERFCX[1])


# erfcx(x) = (2p(Z)/(L+x) + 1/sqrt(pi))/(L+x), Z = (L-x)/(L+x), L = sqrt(N/sqrt(2)):
# Weideman's p, N = 40, highest power first (tests/make_erfcx_coefficients.py)
_WEIDEMAN = (
    -1.899694947394927e-15, 1.128073562364402e-15, 1.1357687198999241e-14, -5.409310282882142e-15,
    -7.074086260286855e-14, 1.37256205867155e-14, 4.5329666782606727e-13, 1.2031458219387989e-13,
    -2.907688342182867e-12, -2.7276023158200452e-12, 1.7714495214011192e-11, 3.47272670930455e-11,
    -9.055124450928292e-11, -3.5632339865976533e-10, 2.1086006347066517e-10,
    3.0177805400090707e-09, 3.2497465180436973e-09, -1.8315616783040462e-08, -6.35177348504429e-08,
    1.4198642399935674e-08, 5.912136951899494e-07, 1.483566113220078e-06, -1.0660138984947143e-06,
    -1.8007447144750956e-05, -5.591309264248318e-05, -3.939363145489569e-05, 0.0004398070159869668,
    0.0027054056330737914, 0.010048186242783424, 0.029202916471241867, 0.07182361779074337,
    0.15504263802479495, 0.29989437996150065, 0.5266528988277086, 0.8472174576593818,
    1.2563815675765133, 1.7253830848179779, 2.201513794878312, 2.61605415276186,
    2.8996245093897053,
)
_WEIDEMAN_L = math.sqrt(40.0 / math.sqrt(2.0))
_weideman_p = horner(_WEIDEMAN)


def _erfcx_near(x):
    d = _WEIDEMAN_L + x
    return (2.0 * _weideman_p((_WEIDEMAN_L - x) / d) / d + _RSQRT_PI) / d


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
