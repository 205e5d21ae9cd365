"""Construction and evaluation of the degree-2 global Pade approximants.

All regimes share one evaluated form A(x) = (n0 + n1*x) / (1 + d1*x + d2*x^2),
with n0 = 1/Gamma(beta) so that A(0) matches the function value exactly.
Off the diagonal the coefficients match A(0), A'(0) and the 1/x and 1/x^2
terms of the asymptotic series. Those four conditions are solved by hand in
Gamma ratios, so no Gamma(beta)^2 is formed and the construction holds up
to Gamma(beta + alpha)'s overflow. The paper's 4x4 system and its closed
form are kept in the tests as references.

E_{alpha,beta}(-x) is completely monotone, so `RationalApprox` refuses an A
that is not positive and nonincreasing. On the diagonal this allows only
alpha <= 1/2, narrower than the paper's 0 < alpha = beta < 1.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .params import _PAIR_MEMO_SIZE, MLParams, Regime, argument
from .special import gamma, libm, rgamma

__all__ = ["RationalApprox", "build_approx", "eval_approx"]

# for alpha = beta, d1 carries rgamma(1 - 2*alpha), which turns negative past 1/2
_DIAGONAL_HINT = "; the diagonal approximant needs alpha <= 1/2"

# the regime test of eval_approx and inv_pade_from_approx; an attribute lookup
# on the Enum class would cost about 0.1 us, a third of a float evaluation
_PURE_EXPONENTIAL = Regime.PURE_EXPONENTIAL


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
        if self.regime is Regime.PURE_EXPONENTIAL:
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
                + (_DIAGONAL_HINT if self.regime is Regime.DIAGONAL else "")
            )


@functools.lru_cache(maxsize=_PAIR_MEMO_SIZE)
def build_approx(params: MLParams) -> RationalApprox:
    """Assemble the unified rational form for the regime of `params`.

    Memoised per `params` (the last 128 pairs): the returned approximant is
    immutable and shared between callers. A failed construction is not
    memoised and raises again on the next call."""
    a, b = params.alpha, params.beta
    regime = params.regime
    if regime is Regime.PURE_EXPONENTIAL:
        return RationalApprox(1.0, 0.0, 0.0, 0.0, regime)
    if regime is Regime.DIAGONAL:
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
    if regime is Regime.ALPHA_ONE:
        return RationalApprox(
            rgamma(b), rgamma(b + 1.0), 2.0 / b, 1.0 / (b * (b - 1.0)), regime
        )
    # A(0), A'(0) and the 1/x, 1/x^2 terms matched, solved by hand in the
    # ratios g = Gamma(b-a)/Gamma(b) and p = Gamma(b)/Gamma(b+a), with
    # t = 1 - g Gamma(b-a)/Gamma(b-2a): d2 = g (g-p)/t, d1 = (g-p)/t + p and
    # n1 = d2/Gamma(b-a). Log-convexity gives g > p and t > 0, both gaps
    # shrinking like alpha^2; g - p > 1e-14 p is |Gamma(b+a)Gamma(b-a) -
    # Gamma(b)^2| >= 1e-14 Gamma(b)^2, and at tiny alpha rounding can still
    # leave t <= 0
    gb, gbm = gamma(b), gamma(b - a)
    g, p = gbm / gb, gb / gbp
    t = 1.0 - g * gbm * rgamma(b - 2.0 * a)
    if not (g - p > 1e-14 * p and t > 0.0):
        raise ConstructionError(
            f"coefficient denominator degenerate for alpha={a}, beta={b}"
        )
    u = (g - p) / t
    d2 = g * u
    return RationalApprox(rgamma(b), d2 / gbm, u + p, d2, regime)


def eval_approx(approx: RationalApprox, x):
    """Evaluate the approximant at x >= 0: a float (a real number or a 0-d
    array counts as one), or a 1-D array evaluated entry by entry to the same
    values as float calls."""
    # the hot case, a float in [0, 1e100] off the exponential regime, takes
    # one chained test; every other argument takes the branch below
    if not (type(x) is float and 0.0 <= x <= 1e100 and approx.regime is not _PURE_EXPONENTIAL):
        x = x if type(x) is float and 0.0 <= x < math.inf else argument(x, "eval_approx")
        if approx.regime is _PURE_EXPONENTIAL:
            return libm(x).exp(-x)
        far = x > 1e100
        if type(x) is float:
            if far:
                return _rescaled(approx, x)
        elif np.count_nonzero(far):
            out = np.empty(x.shape)
            out[far] = _rescaled(approx, x[far])
            out[~far] = eval_approx(approx, x[~far])
            return out
    return (approx.n0 + approx.n1 * x) / (1.0 + approx.d1 * x + approx.d2 * x * x)


def _rescaled(approx: RationalApprox, x):
    """A(x) for x > 1e100, divided through by x^2, and by x once more at the
    end, so neither x*x nor d2*x overflows and a subnormal result is rounded
    once."""
    return (approx.n0 / x + approx.n1) / ((1.0 / x + approx.d1) / x + approx.d2) / x
