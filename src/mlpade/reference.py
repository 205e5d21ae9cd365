"""High-accuracy reference evaluator for E_{alpha,beta}(-x) on [0, inf).

`ml_oracle` takes one of three evaluations, by parameter pair and argument:

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

`ml_taylor`, a plain double-precision Taylor sum for small x, is not used by
the oracle; it remains as an independent check of the closed forms.
"""

import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .params import MLParams, Regime
from .special import erfcx, rgamma

__all__ = [
    "ml_taylor",
    "ml_asymptotic",
    "ml_closed_form",
    "ml_oracle",
]

_LN_PI = math.log(math.pi)
_LN_TINY = -745.0
# x**(1/alpha) at and above which the optimally truncated asymptotic series is
# accurate to ~1e-15 relative, and below which the contour is used
_LN_ASYM_CUTOFF = math.log(40.0)
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


def ml_asymptotic(params: MLParams, x: float) -> float:
    """Algebraic large-x series -sum_{k>=1} (-x)^{-k} / Gamma(beta - alpha*k),
    truncated at the smallest term of its magnitude envelope.
    """
    if x <= 0.0:
        raise DomainError(f"ml_asymptotic requires x > 0, got {x!r}")
    alpha, beta = params.alpha, params.beta
    lnx = math.log(x)
    s, c = 0.0, 0.0
    prev_env = math.inf
    for k in range(1, _MAX_TERMS + 1):
        z = beta - alpha * k
        if z >= 0.5:
            env = -math.lgamma(z) - k * lnx
        else:
            env = math.lgamma(1.0 - z) - _LN_PI - k * lnx
        if env > prev_env + 1e-9:
            break  # optimal truncation: envelope starts growing
        prev_env = env
        tot = s + c
        if env < _LN_TINY or (tot != 0.0 and env < math.log(abs(tot)) - 42.0):
            break
        rg = rgamma(z)
        if rg == 0.0:
            continue
        if not math.isfinite(rg):
            break
        t = math.pow(x, -k) * rg
        if k % 2 == 0:
            t = -t
        s, c = _neumaier(s, c, t)
    return s + c


def ml_closed_form(params: MLParams, x: float) -> float | None:
    """Exact value for the parameter pairs with an erfcx/exp closed form,
    else None."""
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"ml_closed_form requires finite x >= 0, got {x!r}")
    a, b = params.alpha, params.beta
    if params.regime is Regime.PURE_EXPONENTIAL:
        return math.exp(-x)
    if a == 0.5:
        if b == 1.0:
            return erfcx(x)
        if b == 1.5:
            if x == 0.0:
                return rgamma(1.5)
            if x < 0.5:  # 1 - erfcx(x) without its cancellation
                return (math.exp(x * x) * math.erf(x) - math.expm1(x * x)) / x
            return (1.0 - erfcx(x)) / x
        if b == 0.5:
            return rgamma(0.5) - x * erfcx(x)
    if a == 1.0 and b == 2.0:
        return 1.0 if x == 0.0 else -math.expm1(-x) / x
    return None


def _ml_contour(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(-x) by the Talbot contour integral; for x**(1/alpha) < 40."""
    g = np.exp((alpha - beta) * _LOG_U) / (np.exp(alpha * _LOG_U) + x)
    return float(np.dot(_WEIGHTS, g).real)


def ml_oracle(params: MLParams, x: float) -> float:
    """Reference value of E_{alpha,beta}(-x): closed form where one exists,
    the asymptotic series once x**(1/alpha) >= 40, else the contour integral."""
    cf = ml_closed_form(params, x)
    if cf is not None:
        return cf
    if x == 0.0:
        return rgamma(params.beta)
    if math.log(x) / params.alpha >= _LN_ASYM_CUTOFF:
        return ml_asymptotic(params, x)
    return _ml_contour(params.alpha, params.beta, x)
