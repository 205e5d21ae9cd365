"""The paper's coefficient constructions and its explicit rational solutions
of the two fractional ODEs, kept as references for the tests.

The package solves the four matching conditions in Gamma ratios; here they
are solved as the paper writes them, numerically as a 4x4 system and by its
closed form in Gamma(beta)^2. The package builds both ODE solutions as
c * t^p * A(lambda * t^q) from its one approximant A; these are the same
functions written out by hand in Gamma values of the ODE's parameters."""

from dataclasses import dataclass

import numpy as np

from mlpade import ConstructionError, MLParams, ParameterDomainError, Regime
from mlpade.fode import RelaxationSpec, TwoTermSpec
from mlpade.special import gamma, rgamma


@dataclass(frozen=True)
class PadeCoeffs:
    """Raw Hermite-Pade unknowns of (p0 + p1*x + x^2) / (q0 + q1*x + x^2)."""

    p0: float
    p1: float
    q0: float
    q1: float


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
    g2 = gba * rgamma(b - 2.0 * a)
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
        raise ConstructionError("non-finite matching coefficients")
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or 1.0 / cond < 1e-8:
        raise ConstructionError(
            f"matching system singular beyond tolerance (rcond={1.0 / cond:.3e})"
        )
    p0, p1, q0, q1 = np.linalg.solve(mat, rhs)
    return PadeCoeffs(float(p0), float(p1), float(q0), float(q1))


def coeffs_from_closed_form(params: MLParams) -> PadeCoeffs:
    """Coefficients from the closed-form solution of the matching system."""
    _require_sub_regime(params, "coeffs_from_closed_form")
    a, b = params.alpha, params.beta
    gb = gamma(b)
    gbp = gamma(b + a)
    gbm = gamma(b - a)
    rg2 = rgamma(b - 2.0 * a)
    den = gbp * gbm - gb * gb
    if abs(den) < 1e-14 * gb * gb:
        raise ConstructionError(
            f"coefficient denominator degenerate for alpha={a}, beta={b}"
        )
    p1 = (gb * gbp - gbp * gbm * gbm * rg2) / den
    q0 = (gb * gb * gbp / gbm - gb * gbp * gbm * rg2) / den
    q1 = (gb * gbp - gb * gb * gbm * rg2) / den
    return PadeCoeffs(0.0, p1, q0, q1)


def approx_coeffs(params: MLParams, co: PadeCoeffs) -> tuple[float, float, float]:
    """(n1, d1, d2) of A(x) = (n0 + n1*x) / (1 + d1*x + d2*x^2) from the raw
    unknowns, as the package built them from the closed form."""
    return 1.0 / (gamma(params.beta - params.alpha) * co.q0), co.q1 / co.q0, 1.0 / co.q0


def relaxation_rational(spec: RelaxationSpec, t: float) -> float:
    """C1 / (Gamma(a) t^a + (2 lam Gamma(1-a)^2 / (Gamma(1-2a) a)) t^(2a)
    + (lam^2 Gamma(1-a) / a) t^(3a)), with the t^(-a) prefactor."""
    a, lam = spec.alpha, spec.lam
    denom = (
        gamma(a) * t**a
        + (2.0 * lam * gamma(1.0 - a) ** 2 * rgamma(1.0 - 2.0 * a) / a)
        * t ** (2.0 * a)
        + (lam * lam * gamma(1.0 - a) / a) * t ** (3.0 * a)
    )
    return spec.c1 / denom


def two_term_coeffs(spec: TwoTermSpec) -> tuple[float, float]:
    """Denominator coefficients (q0', q1') of the two-term rational solution."""
    a, b = spec.alpha, spec.beta
    ga, gb, g2 = gamma(a), gamma(b), gamma(2.0 * b - a)
    rg = rgamma(2.0 * a - b)
    den = ga * g2 - gb * gb
    q0p = (gb * gb * g2 / ga - ga * gb * g2 * rg) / den
    q1p = (gb * g2 - ga * gb * gb * rg) / den
    return q0p, q1p


def two_term_rational(spec: TwoTermSpec, t: float) -> float:
    """Rational solution of the two-term equation, built from (q0', q1')."""
    a, b = spec.alpha, spec.beta
    q0p, q1p = two_term_coeffs(spec)
    pre = spec.c2 + 1.0
    num = pre * rgamma(b) * t ** (b - 1.0) + (
        pre / (gamma(a) * q0p)
    ) * t ** (2.0 * b - 1.0 - a)
    den = 1.0 + (q1p / q0p) * t ** (b - a) + (1.0 / q0p) * t ** (2.0 * (b - a))
    return num / den
