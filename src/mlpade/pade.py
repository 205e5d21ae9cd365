"""Construction and evaluation of the degree-2 global Pade approximants.

All regimes share one evaluated form A(x) = (n0 + n1*x) / (1 + d1*x + d2*x^2),
with n0 = 1/Gamma(beta) so that A(0) matches the function value exactly.
Off the diagonal the coefficients match A(0), A'(0) and the 1/x and 1/x^2
terms of the asymptotic series. Those four conditions are solved by hand in
Gamma ratios, so no Gamma(beta)^2 is formed and the construction holds up
to Gamma(beta + alpha)'s overflow. The paper's 4x4 system and its closed
form are kept in the tests as references. `eval_approx` evaluates A as
written up to x = 1e100 and past it divided through by x^2 and then x
(`_rescaled`), an array in non-decreasing order as one slice per range.

E_{alpha,beta}(-x) is completely monotone, so `RationalApprox` refuses an A
that is not positive and nonincreasing. On the diagonal this allows only
alpha <= 1/2, narrower than the paper's 0 < alpha = beta < 1.
"""

import functools
import math
from dataclasses import dataclass

from .errors import ConstructionError
from .params import (
    _ALPHA_ONE,
    _APPROX_MEMO_SIZE,
    _DIAGONAL,
    _PURE_EXPONENTIAL,
    MLParams,
    Regime,
    argument,
    restore_order,
)
from .special import gamma, libm, piecewise, rgamma

__all__ = ["RationalApprox", "build_approx", "eval_approx"]

# for alpha = beta, d1 carries rgamma(1 - 2*alpha), which turns negative past 1/2
_DIAGONAL_HINT = "; the diagonal approximant needs alpha <= 1/2"

_RESCALED_FROM = (math.nextafter(1e100, math.inf),)  # the bound of `_rescaled`


@dataclass(frozen=True)
class RationalApprox:
    """A(x) = (n0 + n1*x) / (1 + d1*x + d2*x^2), immutable after construction,
    and positive and nonincreasing on [0, inf) by the check below.

    For the exponential regime (alpha = beta = 1) the rational fields are
    unused placeholders and evaluation returns exp(-x) exactly.
    """

    n0: float
    n1: float
    d1: float
    d2: float
    regime: Regime

    def __post_init__(self):
        if self.regime is _PURE_EXPONENTIAL:
            return
        # A' = ((n1 - n0*d1) - 2*n0*d2*x - n1*d2*x^2) / D(x)^2, so these signs
        # make A positive and nonincreasing on [0, inf); d1 >= n1/n0 >= 0 also
        # leaves the denominator D root-free there
        n0, n1, d1, d2 = self.n0, self.n1, self.d1, self.d2
        if not (n0 > 0.0 and n1 >= 0.0 and d2 > 0.0 and n1 <= n0 * d1):
            raise ConstructionError(
                "approximant is not positive and nonincreasing on [0, inf): "
                "need n0 > 0, n1 >= 0, d2 > 0 and n1 <= n0*d1, got "
                f"(n0={n0!r}, n1={n1!r}, d1={d1!r}, d2={d2!r})"
                + (_DIAGONAL_HINT if self.regime is _DIAGONAL else "")
            )

    def _direct(self, x):
        """A(x) as written, for x <= 1e100; eval_approx inlines it for a float."""
        return (self.n0 + self.n1 * x) / (1.0 + self.d1 * x + self.d2 * x * x)

    def _rescaled(self, x):
        """A(x) for x > 1e100: nothing overflows, and a subnormal result rounds once."""
        return (self.n0 / x + self.n1) / ((1.0 / x + self.d1) / x + self.d2) / x


@functools.lru_cache(maxsize=_APPROX_MEMO_SIZE)
def build_approx(params: MLParams) -> RationalApprox:
    """Assemble the unified rational form for the regime of `params`.

    Memoised per `params` (the last 1024 pairs, a bound of its own: an
    approximant takes a tenth of the memory of an oracle entry, so a sweep
    over hundreds of pairs builds each once): the returned approximant is
    immutable and shared between callers. A failed construction is not
    memoised and raises again on the next call."""
    a, b = params.alpha, params.beta
    regime = params.regime
    if regime is _PURE_EXPONENTIAL:
        return RationalApprox(1.0, 0.0, 0.0, 0.0, regime)
    if regime is _DIAGONAL:
        n0 = rgamma(a)
        ga1 = a * gamma(a)  # Gamma(1 + a); gives d2 = 2 exactly at a = 1/2
        d1 = 2.0 * gamma(1.0 - a) ** 2 * rgamma(1.0 - 2.0 * a) / ga1
        d2 = gamma(1.0 - a) / ga1
        return RationalApprox(n0, 0.0, d1, d2, regime)
    gbp = gamma(b + a)
    if gbp == math.inf:
        raise ConstructionError(
            f"Gamma(beta + alpha) = Gamma({b + a!r}) overflows a double for "
            f"alpha={a}, beta={b}; beta + alpha must stay below 171.62"
        )
    if regime is _ALPHA_ONE:
        return RationalApprox(
            rgamma(b), rgamma(b + 1.0), 2.0 / b, 1.0 / (b * (b - 1.0)), regime
        )
    # A(0), A'(0) and the 1/x, 1/x^2 terms matched, solved by hand in the
    # ratios g = Gamma(b-a)/Gamma(b) and p = Gamma(b)/Gamma(b+a), with
    # t = 1 - g Gamma(b-a)/Gamma(b-2a): d2 = g (g-p)/t, d1 = (g-p)/t + p and
    # n1 = d2/Gamma(b-a). Log-convexity gives g > p and t > 0, both gaps
    # shrinking like alpha^2 psi'(b), while each Gamma value carries a few ulps
    # and its argument's rounding through psi(b) ~ ln(b). So the first test
    # refuses gaps that rounding has closed, the second a relative error of
    # the coefficients, about eps b^2 (8 + ln max(b, 1))/alpha^2, above 1e-6.
    # n0 = 1/gb is rgamma(b) bit for bit: b > 0, and Gamma(b) is finite, as
    # Gamma(b + a) is, or inf below b = 5.6e-309, where both give 0
    gb, gbm = gamma(b), gamma(b - a)
    g, p = gbm / gb, gb / gbp
    t = 1.0 - g * gbm * rgamma(b - 2.0 * a)
    if not (g - p > 1e-14 * p and t > 0.0):
        raise ConstructionError(
            f"coefficient denominator degenerate for alpha={a}, beta={b}"
        )
    err = 2.2e-16 * b * b * (8.0 + math.log(max(b, 1.0))) / (a * a)
    if err > 1e-6:
        raise ConstructionError(f"coefficients swamped by rounding for alpha={a}, beta={b}: "
                                f"estimated relative error {err:.2g} > 1e-6")
    u = (g - p) / t
    d2 = g * u
    return RationalApprox(1.0 / gb, d2 / gbm, u + p, d2, regime)


def eval_approx(approx: RationalApprox, x):
    """Evaluate the approximant at x >= 0: a float (a real number or a 0-d
    array counts as one), or a 1-D array or a `GridSpec`'s points evaluated
    entry by entry to the same values as float calls."""
    # the hot case, a float in [0, 1e100] off the exponential regime, takes one
    # chained test; any other valid float skips the argument test and the split
    if type(x) is float and 0.0 <= x <= 1e100 and approx.regime is not _PURE_EXPONENTIAL:
        return (approx.n0 + approx.n1 * x) / (1.0 + approx.d1 * x + approx.d2 * x * x)
    if type(x) is float and 0.0 <= x < math.inf:
        return math.exp(-x) if approx.regime is _PURE_EXPONENTIAL else approx._rescaled(x)
    x, order = argument(x, "eval_approx")
    if approx.regime is _PURE_EXPONENTIAL:
        return restore_order(libm(x).exp(-x), order)
    return restore_order(piecewise(x, _RESCALED_FROM, (approx._direct, approx._rescaled)), order)
