"""High-accuracy reference evaluator for E_{alpha,beta}(-x) on [0, inf).

`ml_oracle` takes a float or a 1-D array and, by parameter pair and argument,
one of three evaluations:

* closed form (erfcx / exp based) for the parameter pairs that admit one,
  and 1/Gamma(beta) at x = 0;
* the algebraic asymptotic series once x**(1/alpha) >= 40, truncated at its
  smallest-magnitude term.  The term magnitudes oscillate through the sin
  factor of the reflection formula, so truncation tracks the smooth envelope
  Gamma(1 + alpha*k - beta) / (pi * x^k) instead of the raw magnitudes.  The
  truncated tail is at machine-precision level there, for all alpha in (0, 1];
* otherwise the Bromwich integral

      E_{alpha,beta}(-x) = 1/(2 pi i) int_C e^u u^(alpha-beta) / (u^alpha + x) du

  on the optimised Talbot contour of Trefethen, Weideman & Schmelzer,
  "Talbot quadratures and rational approximations", BIT 46 (2006), with a
  fixed 32-node midpoint rule.  The integrand is analytic off the negative
  real axis, except for alpha = 1 a pole at u = -x, and the contour's ends
  lie at real part -43.5, beyond -40.  Its features sit at |u| ~ x**(1/alpha),
  so one node set serves every alpha below the crossover; against 30-digit
  mpmath Talbot inversion the error is ~1e-12 for beta <= alpha + 3 and stays
  below 2e-11 for larger beta, though there it is no longer small relative
  to the value, which shrinks like 1/Gamma(beta).

Accuracy target: absolute error <= 1e-10 below x**(1/alpha) = 40, relative
error <= 1e-6 beyond it.

An array is evaluated in one pass: the closed forms entry by entry, the series
and the contour each as one array kernel, of which a float argument is the
one-entry case.

`ml_taylor`, a plain double-precision Taylor sum for small x, is not used by
the oracle; it remains as an independent check of the closed forms.
"""

import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .params import MLParams, argument_array
from .special import erfcx, erfcx_series_tail, rgamma

__all__ = [
    "ml_taylor",
    "ml_asymptotic",
    "ml_closed_form",
    "ml_oracle",
]

_LN_PI = math.log(math.pi)
_SQRT_PI = math.sqrt(math.pi)
# Gamma overflows a little above this argument
_GAMMA_MAX_ARG = 171.6
_LN_TINY = -745.0
# x**(1/alpha) at and above which the optimally truncated asymptotic series is
# accurate to ~1e-15 relative, and below which the contour is used
_ASYM_CUTOFF = 40.0
_MAX_TERMS = 400
# largest Taylor term the double-precision sum accepts, so that rounding in
# the alternating series' cancellation stays near 1e-13 absolute
_TAYLOR_TERM_LIMIT = math.exp(7.0)
_TAYLOR_TERM_TOL = 1e-17

# Talbot contour u(theta) = N (0.5017 theta cot(0.6407 theta) - 0.6122
# + 0.2645 i theta) on (-pi, pi), midpoint rule with N nodes. The integrand is
# conjugate-symmetric, so the upper-half nodes carry the whole sum.
_N = 32
_THETA = (np.arange(_N // 2) + 0.5) * (2.0 * math.pi / _N)
_U = _N * (0.5017 * _THETA / np.tan(0.6407 * _THETA) - 0.6122 + 0.2645j * _THETA)
_DU = _N * (
    0.5017 / np.tan(0.6407 * _THETA)
    - 0.5017 * 0.6407 * _THETA / np.sin(0.6407 * _THETA) ** 2
    + 0.2645j
)
_WEIGHTS = np.exp(_U) * _DU / (0.5j * _N)
_LOG_U = np.log(_U)


def _neumaier(s: float, c: float, t: float) -> tuple[float, float]:
    tot = s + t
    if abs(s) >= abs(t):
        c += (s - tot) + t
    else:
        c += (t - tot) + s
    return tot, c


def ml_taylor(params: MLParams, x: float) -> float:
    """Double-precision Taylor sum of E_{alpha,beta}(-x), for small x.

    Raises NonConvergenceError where a term exceeds e^7 in magnitude, since
    cancellation would then cost the sum its accuracy, or where the series
    has not converged after 400 terms.
    """
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"ml_taylor requires finite x >= 0, got {x!r}")
    alpha, beta = params.alpha, params.beta
    lnx = math.log(x) if x > 0.0 else -math.inf
    s, c = rgamma(beta), 0.0
    for k in range(1, _MAX_TERMS + 1):
        lt = k * lnx
        if lt < 700.0:
            mag = math.pow(x, k) * abs(rgamma(alpha * k + beta))
        else:
            mag = math.exp(min(700.0, lt - math.lgamma(alpha * k + beta)))
        if mag > _TAYLOR_TERM_LIMIT:
            raise NonConvergenceError(
                f"Taylor term {k} has magnitude {mag:.3g} > e^7; the double-precision "
                f"sum would lose its accuracy (alpha={alpha}, beta={beta}, x={x})"
            )
        s, c = _neumaier(s, c, mag if k % 2 == 0 else -mag)
        if mag <= _TAYLOR_TERM_TOL * abs(s + c):
            return s + c
    raise NonConvergenceError(
        f"Taylor series not converged after {_MAX_TERMS} terms "
        f"(alpha={alpha}, beta={beta}, x={x})"
    )


def _series(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """-sum_{k>=1} (-x)^{-k} / Gamma(beta - alpha*k) at every entry of x > 0.

    With l = ln(x), term k's log-magnitude envelope is e_k - k*l, where e_k is
    -lgamma(z) for z = beta - alpha*k >= 1/2 and lgamma(1 - z) - ln(pi) below
    (the reflection formula without its sin factor). An entry's sum ends
    before the first term whose envelope rises (by more than 1e-9), falls 42
    below the log-magnitude of the first nonzero term (e^-42 is below a
    double's resolution) or below the smallest double, or whose coefficient
    is not finite, and after 400 terms at most. The rise ends every entry with
    l below a running bound, the falls every entry with l above another, so
    one pass over k with the entries sorted by l finds each entry's term
    count, and builds the x-independent coefficients once, as far as the last
    entry needs them.
    """
    order = np.argsort(x)
    xs = x[order]
    ls = np.log(xs).tolist()
    lo, hi = 0, len(ls) - 1  # entries lo..hi (by l) are still summing
    n_terms = [0] * len(ls)
    rise, fall = -math.inf, math.inf
    coef = []
    lgamma, gamma, sin, pi = math.lgamma, math.gamma, math.sin, math.pi
    e_prev = log_c1 = 0.0
    k = k1 = 0  # k1: the first term with a nonzero coefficient
    while lo <= hi and k < _MAX_TERMS:
        k += 1
        z = beta - alpha * k
        if z >= 0.5:
            e = -lgamma(z)
            c = 1.0 / gamma(z) if z <= _GAMMA_MAX_ARG else 0.0
            if k % 2 == 0:
                c = -c
        else:
            # 1/Gamma(z) = Gamma(1 - z) sin(pi z) / pi, exactly 0 at the poles
            w = 1.0 - z
            m = round(z)
            e = lgamma(w) - _LN_PI
            c = (gamma(w) if w <= _GAMMA_MAX_ARG else math.inf) * sin(pi * (z - m)) / pi
            if (m + k) % 2 == 0:
                c = -c
        bound = (e - _LN_TINY) / k  # the envelope underflows for l above it
        if k > 1 and e - e_prev - 1e-9 > rise:
            rise = e - e_prev - 1e-9
        if k1 and (e - log_c1 + 42.0) / (k - k1) < bound:
            bound = (e - log_c1 + 42.0) / (k - k1)
        if bound < fall:
            fall = bound
        if not math.isfinite(c):
            fall = -math.inf
        elif not k1 and c:
            k1, log_c1 = k, math.log(abs(c))
        e_prev = e
        while lo <= hi and ls[lo] < rise:
            n_terms[lo] = k - 1
            lo += 1
        while lo <= hi and ls[hi] > fall:
            n_terms[hi] = k - 1
            hi -= 1
        coef.append(c)
    n_terms[lo:hi + 1] = [k] * (hi + 1 - lo)
    # partial[:, j] sums terms 1..j; the term k = 0 has coefficient 0
    k = np.arange(max(n_terms, default=0) + 1.0)
    partial = np.cumsum(np.array([0.0] + coef[:k.size - 1]) * xs[:, None] ** -k, axis=1)
    out = np.empty(x.size)
    out[order] = partial[np.arange(x.size), n_terms]
    return out


def ml_asymptotic(params: MLParams, x: float) -> float:
    """Algebraic large-x series -sum_{k>=1} (-x)^{-k} / Gamma(beta - alpha*k),
    truncated at the smallest term of its magnitude envelope.
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"ml_asymptotic requires finite x > 0, got {x!r}")
    return float(_series(params.alpha, params.beta, np.array([float(x)]))[0])


def _closed_form(params: MLParams):
    """The scalar closed form x -> E_{alpha,beta}(-x) of `params`, or None."""
    a, b = params.alpha, params.beta
    if a == 0.5:
        return {1.0: erfcx, 1.5: _half_three_halves, 0.5: _half_half}.get(b)
    if a == 1.0:
        return {1.0: _exp_neg, 2.0: _one_two}.get(b)
    return None


def _exp_neg(x: float) -> float:
    return math.exp(-x)


def _half_three_halves(x: float) -> float:
    if x == 0.0:
        return rgamma(1.5)
    if x < 0.5:  # 1 - erfcx(x) without its cancellation
        return (math.exp(x * x) * math.erf(x) - math.expm1(x * x)) / x
    return (1.0 - erfcx(x)) / x


def _half_half(x: float) -> float:
    if x < 26.0:
        return rgamma(0.5) - x * erfcx(x)
    # 1/sqrt(pi) - x*erfcx(x) without its cancellation
    return erfcx_series_tail(x) / _SQRT_PI


def _one_two(x: float) -> float:
    return 1.0 if x == 0.0 else -math.expm1(-x) / x


def ml_closed_form(params: MLParams, x: float) -> float | None:
    """Exact value for the parameter pairs with an erfcx/exp closed form,
    else None."""
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"ml_closed_form requires finite x >= 0, got {x!r}")
    closed = _closed_form(params)
    return None if closed is None else closed(x)


def _ml_contour(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-x) by the Talbot contour integral at every entry of x;
    for x**(1/alpha) < 40."""
    g = np.exp((alpha - beta) * _LOG_U) / (np.exp(alpha * _LOG_U) + x[:, None])
    return (g @ _WEIGHTS).real


def ml_oracle(params: MLParams, x):
    """Reference value of E_{alpha,beta}(-x) at x >= 0, a float or a 1-D array:
    closed form where one exists, 1/Gamma(beta) at x = 0, the asymptotic
    series once x**(1/alpha) >= 40, else the contour integral."""
    closed = _closed_form(params)
    alpha, beta = params.alpha, params.beta
    cutoff = _ASYM_CUTOFF**alpha
    if not isinstance(x, np.ndarray):
        # a float takes its path directly: the array bookkeeping below would
        # double the cost of a contour point
        if x < 0.0 or not math.isfinite(x):
            raise DomainError(f"ml_oracle requires finite x >= 0, got {x!r}")
        if closed is not None:
            return closed(x)
        if x == 0.0:
            return rgamma(beta)
        kernel = _series if x >= cutoff else _ml_contour
        return float(kernel(alpha, beta, np.array([float(x)]))[0])
    xs = argument_array(x, "ml_oracle")
    if closed is not None:
        return np.array([closed(v) for v in xs.tolist()])
    out = np.full(xs.shape, rgamma(beta))
    far = xs >= cutoff
    near = (xs > 0.0) & ~far
    if far.any():
        out[far] = _series(alpha, beta, xs[far])
    if near.any():
        out[near] = _ml_contour(alpha, beta, xs[near])
    return out
