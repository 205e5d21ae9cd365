"""Rational closed-form solutions of two Riemann-Liouville fractional ODEs.

Relaxation equation:  D^alpha f + lambda*f = 0 with [D^{-alpha} f]_{t=0} = C1,
solved by f(t) = C1 * t^{-alpha} * E_{alpha,alpha}(-lambda*t^alpha).

Two-term impulse equation:  D^alpha g + D^beta g = delta(t) with 0<alpha<beta<1,
solved by g(t) = (C2+1) * t^{beta-1} * E_{beta-alpha,beta}(-t^{beta-alpha}).

The t^{-alpha} relaxation prefactor follows the source formula; the classical
literature uses t^{alpha-1} (the two agree only at alpha = 1/2), so both are
available through the `prefactor` switch ("paper" keeps t^{-alpha},
"standard" uses t^{alpha-1}).
"""

import math
from dataclasses import dataclass

from .errors import DomainError
from .pade import snapped_rgamma
from .params import classify
from .reference import ml_oracle
from .special import gamma, rgamma

__all__ = [
    "RelaxationSpec",
    "TwoTermSpec",
    "relaxation_exact",
    "relaxation_pade",
    "two_term_exact",
    "two_term_pade",
    "two_term_coeffs",
]

PREFACTORS = ("paper", "standard")


@dataclass(frozen=True)
class RelaxationSpec:
    alpha: float
    lam: float
    c1: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha!r}")
        if not self.lam > 0.0:
            raise DomainError(f"lambda must be positive, got {self.lam!r}")


@dataclass(frozen=True)
class TwoTermSpec:
    alpha: float
    beta: float
    c2: float

    def __post_init__(self):
        if not 0.0 < self.alpha < self.beta < 1.0:
            raise DomainError(
                f"need 0 < alpha < beta < 1, got ({self.alpha!r}, {self.beta!r})"
            )


def _check_t(t: float) -> None:
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"solution is singular at the origin; need t > 0, got {t!r}")


def _relax_prefactor(alpha: float, t: float, prefactor: str) -> float:
    if prefactor not in PREFACTORS:
        raise DomainError(f"prefactor must be one of {PREFACTORS}, got {prefactor!r}")
    return t ** (-alpha) if prefactor == "paper" else t ** (alpha - 1.0)


def relaxation_exact(spec: RelaxationSpec, t: float, prefactor: str = "paper") -> float:
    _check_t(t)
    params = classify(spec.alpha, spec.alpha)
    value = ml_oracle(params, spec.lam * t**spec.alpha)
    return spec.c1 * _relax_prefactor(spec.alpha, t, prefactor) * value


def relaxation_pade(spec: RelaxationSpec, t: float, prefactor: str = "paper") -> float:
    """Rational solution: C1 over a three-term power denominator in t."""
    _check_t(t)
    a, lam = spec.alpha, spec.lam
    denom = (
        gamma(a) * t**a
        + (2.0 * lam * gamma(1.0 - a) ** 2 * snapped_rgamma(1.0 - 2.0 * a) / a)
        * t ** (2.0 * a)
        + (lam * lam * gamma(1.0 - a) / a) * t ** (3.0 * a)
    )
    value = spec.c1 / denom
    if prefactor == "paper":
        return value
    if prefactor != "standard":
        raise DomainError(f"prefactor must be one of {PREFACTORS}, got {prefactor!r}")
    return value * t ** (2.0 * a - 1.0)


def two_term_exact(spec: TwoTermSpec, t: float) -> float:
    _check_t(t)
    a, b = spec.alpha, spec.beta
    params = classify(b - a, b)
    return (spec.c2 + 1.0) * t ** (b - 1.0) * ml_oracle(params, t ** (b - a))


def two_term_coeffs(spec: TwoTermSpec) -> tuple[float, float]:
    """Denominator coefficients (q0', q1') of the two-term rational solution."""
    a, b = spec.alpha, spec.beta
    ga, gb, g2 = gamma(a), gamma(b), gamma(2.0 * b - a)
    rg = snapped_rgamma(2.0 * a - b)
    den = ga * g2 - gb * gb
    q0p = (gb * gb * g2 / ga - ga * gb * g2 * rg) / den
    q1p = (gb * g2 - ga * gb * gb * rg) / den
    return q0p, q1p


def two_term_pade(spec: TwoTermSpec, t: float) -> float:
    """Rational solution of the two-term equation, built from (q0', q1')."""
    _check_t(t)
    a, b = spec.alpha, spec.beta
    q0p, q1p = two_term_coeffs(spec)
    pre = spec.c2 + 1.0
    num = pre * rgamma(b) * t ** (b - 1.0) + (
        pre / (gamma(a) * q0p)
    ) * t ** (2.0 * b - 1.0 - a)
    den = 1.0 + (q1p / q0p) * t ** (b - a) + (1.0 / q0p) * t ** (2.0 * (b - a))
    return num / den
