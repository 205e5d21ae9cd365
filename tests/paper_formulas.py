"""The paper's explicit rational solutions of the two fractional ODEs, kept as
references for the tests. The package builds both solutions as
c * t^p * A(lambda * t^q) from its one approximant A; these are the same
functions written out by hand in Gamma values of the ODE's parameters."""

from mlpade.fode import RelaxationSpec, TwoTermSpec
from mlpade.pade import snapped_rgamma
from mlpade.special import gamma, rgamma


def relaxation_rational(spec: RelaxationSpec, t: float) -> float:
    """C1 / (Gamma(a) t^a + (2 lam Gamma(1-a)^2 / (Gamma(1-2a) a)) t^(2a)
    + (lam^2 Gamma(1-a) / a) t^(3a)), with the t^(-a) prefactor."""
    a, lam = spec.alpha, spec.lam
    denom = (
        gamma(a) * t**a
        + (2.0 * lam * gamma(1.0 - a) ** 2 * snapped_rgamma(1.0 - 2.0 * a) / a)
        * t ** (2.0 * a)
        + (lam * lam * gamma(1.0 - a) / a) * t ** (3.0 * a)
    )
    return spec.c1 / denom


def two_term_coeffs(spec: TwoTermSpec) -> tuple[float, float]:
    """Denominator coefficients (q0', q1') of the two-term rational solution."""
    a, b = spec.alpha, spec.beta
    ga, gb, g2 = gamma(a), gamma(b), gamma(2.0 * b - a)
    rg = snapped_rgamma(2.0 * a - b)
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
