"""Exact and rational solutions of two Riemann-Liouville fractional ODEs.

Relaxation equation:  D^alpha f + lambda*f = 0 with [D^{-alpha} f]_{t=0} = C1,
solved by f(t) = C1 * t^{-alpha} * E_{alpha,alpha}(-lambda*t^alpha).

Two-term impulse equation:  D^alpha g + D^beta g = delta(t) with 0<alpha<beta<1,
solved by g(t) = (C2+1) * t^{beta-1} * E_{beta-alpha,beta}(-t^{beta-alpha}).

Both are c * t^p * E_{a,b}(-lambda*t^q): the exact solutions take E from the
oracle, the rational ones from `spec.approx`, the approximant built once per
spec, whose checks they share (above alpha = 1/2 the diagonal approximant is
not monotone and `relaxation_pade` raises ConstructionError).

The t^{-alpha} relaxation prefactor follows the source formula; the classical
literature uses t^{alpha-1} (the two agree only at alpha = 1/2), so both are
available through the `prefactor` switch ("paper" keeps t^{-alpha},
"standard" uses t^{alpha-1}).
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from .pade import RationalApprox, build_approx, eval_approx
from .params import classify
from .reference import ml_oracle

__all__ = [
    "RelaxationSpec",
    "TwoTermSpec",
    "relaxation_exact",
    "relaxation_pade",
    "two_term_exact",
    "two_term_pade",
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

    @cached_property
    def approx(self) -> RationalApprox:
        return build_approx(classify(self.alpha, self.alpha))


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

    @cached_property
    def approx(self) -> RationalApprox:
        return build_approx(classify(self.beta - self.alpha, self.beta))


def _check_t(t: float) -> None:
    if not math.isfinite(t):
        raise DomainError(f"need finite t, got {t!r}")
    if not t > 0.0:
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
    """Rational solution: `relaxation_exact` with the approximant in place of E."""
    _check_t(t)
    value = eval_approx(spec.approx, spec.lam * t**spec.alpha)
    return spec.c1 * _relax_prefactor(spec.alpha, t, prefactor) * value


def two_term_exact(spec: TwoTermSpec, t: float) -> float:
    _check_t(t)
    a, b = spec.alpha, spec.beta
    params = classify(b - a, b)
    return (spec.c2 + 1.0) * t ** (b - 1.0) * ml_oracle(params, t ** (b - a))


def two_term_pade(spec: TwoTermSpec, t: float) -> float:
    """Rational solution: `two_term_exact` with the approximant in place of E."""
    _check_t(t)
    a, b = spec.alpha, spec.beta
    return (spec.c2 + 1.0) * t ** (b - 1.0) * eval_approx(spec.approx, t ** (b - a))
