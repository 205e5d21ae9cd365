"""Construction and evaluation of the degree-2 global Pade approximants.

All regimes share one evaluated form A(x) = (n0 + n1*x) / (1 + d1*x + d2*x^2),
with n0 = 1/Gamma(beta) so that A(0) matches the function value exactly.
The coefficients come from matching three Taylor terms at 0 and two
asymptotic terms at infinity; the resulting 4x4 linear system is solved
both numerically and via its closed-form solution, and the two paths are
cross-checked in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DegenerateSystemError,
    DomainError,
    ParameterDomainError,
)
from .params import MLParams, Regime, classify
from .special import gamma, rgamma

__all__ = [
    "PadeCoeffs",
    "RationalApprox",
    "classify",
    "solve_hermite_pade",
    "coeffs_from_closed_form",
    "build_approx",
    "eval_approx",
    "snapped_rgamma",
]

# alpha* is the root of d1^2 = 4*d2 for alpha = beta
_DIAGONAL_HINT = "; the diagonal approximant needs alpha <= alpha* = 0.6512075036295607"

# beta - 2*alpha is computed, not input, so floating-point parameter choices
# that mathematically hit a Gamma pole must snap to it
_POLE_SNAP_TOL = 1e-12


def snapped_rgamma(x: float, tol: float = _POLE_SNAP_TOL) -> float:
    """1/Gamma(x) with values within `tol` of a nonpositive integer
    treated as the exact pole (returning 0)."""
    r = round(x)
    if r <= 0 and abs(x - r) <= tol:
        return 0.0
    return rgamma(x)


@dataclass(frozen=True)
class PadeCoeffs:
    """Raw Hermite-Pade unknowns of (p0 + p1*x + x^2) / (q0 + q1*x + x^2)."""

    p0: float
    p1: float
    q0: float
    q1: float


@dataclass(frozen=True)
class RationalApprox:
    """A(x) = (n0 + n1*x) / (1 + d1*x + d2*x^2), immutable after construction.

    For the exponential regime (alpha = beta = 1) the rational fields are
    unused placeholders and evaluation returns exp(-x) exactly.
    """

    n0: float
    n1: float
    d1: float
    d2: float
    regime: Regime

    def __post_init__(self):
        if self.regime is Regime.PURE_EXPONENTIAL:
            return
        if not self.d2 > 0.0:
            raise ConstructionError(f"d2 must be positive, got {self.d2!r}")
        # denominator must be root-free on [0, inf): with root product
        # 1/d2 > 0, real roots are both negative exactly when d1 > 0
        disc = self.d1 * self.d1 - 4.0 * self.d2
        if disc >= 0.0 and self.d1 <= 0.0:
            raise ConstructionError(
                "approximant denominator has a nonnegative real root "
                f"(d1={self.d1!r}, d2={self.d2!r})"
                + (_DIAGONAL_HINT if self.regime is Regime.DIAGONAL else "")
            )


def _require_sub_regime(params: MLParams, op: str) -> None:
    if params.regime not in (Regime.GENERAL_SUB, Regime.BETA_ONE):
        raise ParameterDomainError(
            f"{op} applies to the 0<alpha<1, beta>alpha cases only, "
            f"got regime {params.regime.value}"
        )


def solve_hermite_pade(params: MLParams) -> PadeCoeffs:
    """Coefficients by direct numerical solution of the 4x4 matching system.

    Unknowns (p0, p1, q0, q1) satisfy
        p0 = 0
        p1 - g0*q0 = 0
        g1*q0 - g0*q1 = -1
        p1 - q1 = -g2
    with g0 = Gamma(beta-alpha)/Gamma(beta), g1 = Gamma(beta-alpha)/Gamma(beta+alpha),
    g2 = Gamma(beta-alpha)/Gamma(beta-2*alpha).
    """
    _require_sub_regime(params, "solve_hermite_pade")
    a, b = params.alpha, params.beta
    gba = gamma(b - a)
    g0 = gba * rgamma(b)
    g1 = gba * rgamma(b + a)
    g2 = gba * snapped_rgamma(b - 2.0 * a)
    mat = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, -g0, 0.0],
            [0.0, 0.0, g1, -g0],
            [0.0, 1.0, 0.0, -1.0],
        ]
    )
    rhs = np.array([0.0, 0.0, -1.0, -g2])
    if not np.all(np.isfinite(mat)):
        raise DegenerateSystemError("non-finite matching coefficients")
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or 1.0 / cond < 1e-8:
        raise DegenerateSystemError(
            f"matching system singular beyond tolerance (rcond={1.0 / cond:.3e})"
        )
    p0, p1, q0, q1 = np.linalg.solve(mat, rhs)
    return PadeCoeffs(float(p0), float(p1), float(q0), float(q1))


def coeffs_from_closed_form(params: MLParams) -> PadeCoeffs:
    """Coefficients from the closed-form solution of the matching system,
    with every reciprocal Gamma routed through the pole-aware helper."""
    _require_sub_regime(params, "coeffs_from_closed_form")
    a, b = params.alpha, params.beta
    gb = gamma(b)
    gbp = gamma(b + a)
    gbm = gamma(b - a)
    rg2 = snapped_rgamma(b - 2.0 * a)
    den = gbp * gbm - gb * gb
    if abs(den) < 1e-14 * gb * gb:
        raise DegenerateSystemError(
            f"coefficient denominator degenerate for alpha={a}, beta={b}"
        )
    p1 = (gb * gbp - gbp * gbm * gbm * rg2) / den
    q0 = (gb * gb * gbp / gbm - gb * gbp * gbm * rg2) / den
    q1 = (gb * gbp - gb * gb * gbm * rg2) / den
    return PadeCoeffs(0.0, p1, q0, q1)


def build_approx(params: MLParams) -> RationalApprox:
    """Assemble the unified rational form for the regime of `params`."""
    a, b = params.alpha, params.beta
    regime = params.regime
    if regime is Regime.PURE_EXPONENTIAL:
        return RationalApprox(1.0, 0.0, 0.0, 0.0, regime)
    if regime is Regime.DIAGONAL:
        n0 = rgamma(a)
        ga1 = a * gamma(a)  # Gamma(1 + a); gives d2 = 2 exactly at a = 1/2
        d1 = 2.0 * gamma(1.0 - a) ** 2 * snapped_rgamma(1.0 - 2.0 * a) / ga1
        d2 = gamma(1.0 - a) / ga1
        return RationalApprox(n0, 0.0, d1, d2, regime)
    if regime is Regime.ALPHA_ONE:
        return RationalApprox(
            rgamma(b), rgamma(b + 1.0), 2.0 / b, 1.0 / (b * (b - 1.0)), regime
        )
    co = coeffs_from_closed_form(params)
    if co.q0 == 0.0:
        raise DegenerateSystemError(f"q0 vanished for alpha={a}, beta={b}")
    return RationalApprox(
        rgamma(b), 1.0 / (gamma(b - a) * co.q0), co.q1 / co.q0, 1.0 / co.q0, regime
    )


def eval_approx(approx: RationalApprox, x: float) -> float:
    """Evaluate the approximant at x >= 0."""
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"eval_approx requires finite x >= 0, got {x!r}")
    if approx.regime is Regime.PURE_EXPONENTIAL:
        return math.exp(-x)
    if x > 1e100:
        # rescaled form avoids inf/inf for extreme arguments
        return (approx.n0 / x + approx.n1) / ((1.0 / x + approx.d1) + approx.d2 * x)
    return (approx.n0 + approx.n1 * x) / (1.0 + approx.d1 * x + approx.d2 * x * x)
