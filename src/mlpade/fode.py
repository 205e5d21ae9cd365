"""Exact and rational solutions of two Riemann-Liouville fractional ODEs.

Relaxation equation:  D^alpha f + lambda*f = 0 with [D^{-alpha} f]_{t=0} = C1,
solved by f(t) = C1 * t^{-alpha} * E_{alpha,alpha}(-lambda*t^alpha).

Two-term impulse equation:  D^alpha g + D^beta g = delta(t) with 0<alpha<beta<1,
solved by g(t) = (C2+1) * t^{beta-1} * E_{beta-alpha,beta}(-t^{beta-alpha}).

Both are one substitution, c * t^p * E_{a,b}(-lambda*t^q) with (a, b) =
`spec.params`, which a spec records when it is made (the two-term spec with
lambda = 1.0, which leaves t^q exact). All four solutions run one body: the
exact ones take E from the oracle, the rational ones from `spec.approx`, a
`functools.cached_property` that builds the approximant on first use and keeps
it in `vars(spec)` (above alpha = 1/2 the diagonal approximant is refused:
`relaxation_pade` raises ConstructionError on every call and keeps nothing,
while `relaxation_exact`, which never builds it, works).
The body takes t as a float (a real number or a 0-d array counts as one, and
one outside the domain gets the float's message), then builds the
approximant, then looks up the prefactor. Where lambda*t^q overflows, it
returns c*t^p*0.0, the limit of E(-x); at a subnormal t where t^p passes the
largest double, it raises ResultOverflowError.

The t^{-alpha} relaxation prefactor follows the source formula; the classical
literature uses t^{alpha-1} (the two agree only at alpha = 1/2), so both are
available through the `prefactor` switch ("paper" keeps t^{-alpha},
"standard" uses t^{alpha-1}).
"""

import functools
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


class _Spec:
    @functools.cached_property
    def approx(self):
        """The approximant of `params`, built on first use and kept; a refused
        one raises its ConstructionError on every use."""
        return build_approx(self.params)


@dataclass(frozen=True)
class RelaxationSpec(_Spec):
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
        a = self.alpha
        object.__setattr__(self, "params", MLParams(a, a))
        powers = {"paper": -a, "standard": a - 1.0}  # p by prefactor
        object.__setattr__(self, "_substitution", (self.c1, self.lam, a, powers))


@dataclass(frozen=True)
class TwoTermSpec(_Spec):
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
        q = self.beta - self.alpha
        object.__setattr__(self, "params", MLParams(q, self.beta))
        powers = {"paper": self.beta - 1.0}  # one form: the two-term solutions pass "paper"
        object.__setattr__(self, "_substitution", (self.c2 + 1.0, 1.0, q, powers))


def _solution(spec, t, prefactor: str, E, target: str, op: str) -> float:
    """c * t^p * E(spec.<target>, lambda*t^q) by `spec._substitution`. Its hot
    case, a normal float t < inf, takes one chained test; any other t is
    converted and tested here, with DomainError naming `op`."""
    if not (type(t) is float and 2.2250738585072014e-308 <= t < math.inf):
        t = convert(t, op, array=False)
        if not math.isfinite(t):
            raise DomainError(f"need finite t, got {t!r}")
        if not t > 0.0:
            raise DomainError(f"solution is singular at the origin; need t > 0, got {t!r}")
    c, lam, q, powers = spec._substitution
    try:
        value = E(getattr(spec, target), lam * t**q)
    except DomainError:  # lambda*t^q overflowed to inf, where E(-x) tends to 0
        value = 0.0
    try:
        p = powers[prefactor]
    except (KeyError, TypeError):
        raise DomainError(f"prefactor must be one of {PREFACTORS}, got {prefactor!r}") from None
    try:
        return c * t**p * value
    except OverflowError:  # every p lies in (-1, 0): only a subnormal t gets here
        raise ResultOverflowError(f"{op}: t**{p!r} at t={t!r} overflows a double") from None


def relaxation_exact(spec: RelaxationSpec, t: float, prefactor: str = "paper") -> float:
    return _solution(spec, t, prefactor, ml_oracle, "params", "relaxation_exact")


def relaxation_pade(spec: RelaxationSpec, t: float, prefactor: str = "paper") -> float:
    """Rational solution: `relaxation_exact` with the approximant in place of E."""
    return _solution(spec, t, prefactor, eval_approx, "approx", "relaxation_pade")


def two_term_exact(spec: TwoTermSpec, t: float) -> float:
    return _solution(spec, t, "paper", ml_oracle, "params", "two_term_exact")


def two_term_pade(spec: TwoTermSpec, t: float) -> float:
    """Rational solution: `two_term_exact` with the approximant in place of E."""
    return _solution(spec, t, "paper", eval_approx, "approx", "two_term_pade")
