"""High-accuracy reference evaluator for E_{alpha,beta}(-x) on [0, inf).

`ml_oracle` takes a float, a 1-D array or a `GridSpec` and, by parameter pair
and argument, one of three evaluations:

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

Each pair's route is one table, (bounds, pieces), that `special.piecewise`
runs on a float and on an array alike: pieces[i] holds on [bounds[i-1],
bounds[i]). A closed form's table is a row of `_CLOSED_FORMS`, each piece an
expression of a float or an array: at alpha = 1/2 +, -, * and / alone below
x = 26 (`special.erfcx` and, for (1/2, 3/2) below 0.5, a 25-term Taylor sum),
within 1e-15 of 40-digit mpmath; at alpha = 1 exp or expm1 from `special.libm`.
Any other pair's table is ((5e-324, 40**alpha), (1/Gamma(beta), contour,
series)), an entry of a memo of the last 128 pairs, and its two kernels run a
float on a one-entry array. An array is evaluated in one pass and in
non-decreasing order, each range a contiguous slice, each entry equal to the
float call bit for bit, into a C-contiguous float64 array of its own. Each
kernel keeps its x-independent part: the series' coefficients and term counts,
rebuilt from the first term when a call needs more terms than the table holds,
so that no value depends on the calls before it, and the integrand's two
powers of u on the contour's nodes, built on the first contour call. The
series' exponents -k are one constant.

The one-point views `ml_taylor`, a plain double-precision Taylor sum for
small x, `ml_asymptotic` and `ml_closed_form` are called by no package code;
they stay for the tests and the benchmark's tracer.
"""

import functools
import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .params import _PAIR_MEMO_SIZE, MLParams, argument, restore_order
from .special import _ERFCX, _SQRT_PI, _erfcx, erfcx_series_tail, horner, libm, piecewise, rgamma

__all__ = [
    "ml_taylor",
    "ml_asymptotic",
    "ml_closed_form",
    "ml_oracle",
]

_LN_PI = math.log(math.pi)
_RGAMMA_HALF = rgamma(0.5)
_RGAMMA_THREE_HALVES = rgamma(1.5)
# Gamma overflows a little above this argument
_GAMMA_MAX_ARG = 171.6
_LN_TINY = -745.0
# x**(1/alpha) at and above which the optimally truncated asymptotic series is
# accurate to ~1e-15 relative, and below which the contour is used
_ASYM_CUTOFF = 40.0
_MAX_TERMS = 400
_NEG_K = -np.arange(_MAX_TERMS + 1.0)  # the series' exponents -k, k = 0..400
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


def ml_taylor(params: MLParams, x: float) -> float:
    """Double-precision Taylor sum of E_{alpha,beta}(-x), for small x.

    Raises NonConvergenceError where a term exceeds e^7 in magnitude, since
    cancellation would then cost the sum its accuracy, or where the series
    has not converged after 400 terms.
    """
    x, _ = argument(x, "ml_taylor", array=False)
    alpha, beta = params.alpha, params.beta
    lnx = math.log(x) if x > 0.0 else -math.inf
    terms = [rgamma(beta)]
    s = terms[0]  # the running sum, for the stop test only
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
        terms.append(mag if k % 2 == 0 else -mag)
        s += terms[-1]
        if mag <= _TAYLOR_TERM_TOL * abs(s):
            return math.fsum(terms)
    raise NonConvergenceError(
        f"Taylor series not converged after {_MAX_TERMS} terms "
        f"(alpha={alpha}, beta={beta}, x={x})"
    )


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


class _PairKernels:
    """The two kernels of one (alpha, beta), each called on a float > 0, which
    it runs on a one-entry array, or on an ordered array of them, with their
    x-independent parts: `contour`, for x < 40**alpha, and `series`, from it.
    The pair's route holds the two bound methods, so an entry refers to its
    kernels and they never to it, and an evicted entry is freed at once.

    `table`, for `series`, is built as far as calls have needed it: three
    read-only arrays, the coefficients of terms 0..K (term 0's is 0), and the
    term count of l = ln(x) as a step function, `breaks` and `counts`: an
    entry sums counts[i] terms, i the number of breaks <= l. The placeholder
    has no terms and gives every entry 0, so its first call builds the table.
    `nodes`, for `contour`, holds u^(alpha-beta) and u^alpha on the contour's
    nodes. `series` takes its exponents -k from the constant `_NEG_K`."""

    table = _read_only(np.zeros(1), np.empty(0), np.zeros(1, np.intp))  # until the first `cover`

    def __init__(self, alpha: float, beta: float):
        self.alpha, self.beta = alpha, beta

    def cover(self, l_lo: float, l_hi: float) -> tuple:
        """The table, built from its first term until max(rise, l_lo) >
        min(fall, l_hi), when each entry with l in [l_lo, l_hi] has ended its
        sum, or to 400 terms; then published in one assignment. The running
        bounds `rise` and `fall` after each term k give l's term count,
        min(#{rise_k <= l}, #{fall_k >= l}), which changes only at each rise_k
        and at the double after each fall_k: these are the breaks. Sized by
        the calls: a table for the whole series domain (median 88 terms)
        doubles a fresh pair's first series call and adds half to a scalar
        oracle's p50."""
        alpha, beta = self.alpha, self.beta
        k = k1 = 0  # k1: the first nonzero term
        log_c1 = e_prev = 0.0
        rise, fall = -math.inf, math.inf
        columns = []
        lgamma, gamma, sin, pi = math.lgamma, math.gamma, math.sin, math.pi
        while rise <= fall and rise <= l_hi and l_lo <= fall and k < _MAX_TERMS:
            k += 1
            z = beta - alpha * k
            if z >= 0.5:
                e = -lgamma(z)
                c = 1.0 / gamma(z) if z <= _GAMMA_MAX_ARG else 0.0
                if k % 2 == 0:
                    c = -c
            else:
                # 1/Gamma(z) = Gamma(1 - z) sin(pi z) / pi, exactly 0 at the poles
                w = 1.0 - z
                m = round(z)
                e = lgamma(w) - _LN_PI
                c = (gamma(w) if w <= _GAMMA_MAX_ARG else math.inf) * sin(pi * (z - m)) / pi
                if (m + k) % 2 == 0:
                    c = -c
            bound = (e - _LN_TINY) / k  # the envelope underflows for l above it
            if k > 1 and e - e_prev - 1e-9 > rise:
                rise = e - e_prev - 1e-9
            if k1 and (e - log_c1 + 42.0) / (k - k1) < bound:
                bound = (e - log_c1 + 42.0) / (k - k1)
            if bound < fall:
                fall = bound
            if not math.isfinite(c):
                fall = -math.inf
            elif not k1 and c:
                k1, log_c1 = k, math.log(abs(c))
            e_prev = e
            columns.append((c, rise, fall))
        coef, rises, falls = np.array(columns).T
        # np.sort, not np.unique, which imports numpy.ma (1 MB) on its first call
        breaks = np.sort(np.concatenate([rises, np.nextafter(falls, math.inf)]))
        # breaks[0] is rise_1 = -inf, so counts[0], below every break, is never read
        counts = np.zeros(breaks.size + 1, np.intp)
        np.minimum(rises.searchsorted(breaks, "right"), (-falls).searchsorted(-breaks, "right"),
                   out=counts[1:])
        table = self.table = _read_only(np.concatenate([[0.0], coef]), breaks, counts)
        return table

    def series(self, x):
        """-sum_{k>=1} (-x)^{-k} / Gamma(beta - alpha*k) at x > 0.

        With l = ln(x), term k's log-magnitude envelope is e_k - k*l, where e_k
        is -lgamma(z) for z = beta - alpha*k >= 1/2 and lgamma(1 - z) - ln(pi)
        below (the reflection formula without its sin factor). An entry's sum
        ends before the first term whose envelope rises (by more than 1e-9),
        falls 42 below the log-magnitude of the first nonzero term (e^-42 is
        below a double's resolution) or below the smallest double, or whose
        coefficient is not finite, and after 400 terms at most. The rise ends
        every entry with l below a running bound, the falls every entry with l
        above another, so an entry's term count is the last term before l
        leaves the bounds, looked up in the table's step function of l. The
        coefficients and counts depend on the pair alone: the table is
        rebuilt, longer, only when an entry runs off its end, and a call sums
        with the table it was handed.
        """
        scalar = type(x) is float
        if scalar:
            x = np.array([x])
        ls = np.log(x)
        table = self.table
        n_terms, n_max = _term_counts(table, ls)
        if n_max == table[0].size - 1 < _MAX_TERMS:  # an entry may need more terms
            table = self.cover(float(ls[0]), float(ls[-1]))
            n_terms, n_max = _term_counts(table, ls)
        # row i, column j: the sum of terms 1..j at x[i], added in order as np.cumsum does
        k = n_max + 1
        terms = np.power(x[:, None], _NEG_K[:k])
        terms *= table[0][:k]
        np.add.accumulate(terms, axis=1, out=terms)
        out = terms[np.arange(x.size), n_terms]
        return float(out[0]) if scalar else out

    @functools.cached_property
    def nodes(self) -> tuple:
        return np.exp((self.alpha - self.beta) * _LOG_U), np.exp(self.alpha * _LOG_U)

    def contour(self, x):
        """E_{alpha,beta}(-x) by the Talbot contour integral at x, for
        x**(1/alpha) < 40; an array's values in an array of their own."""
        scalar = type(x) is float
        if scalar:
            x = np.array([x])
        num, den = self.nodes
        g = num / (den + x[:, None])
        # each row summed on its own, in one fixed order, so that an entry does not
        # depend on the rows around it; a matrix product (BLAS) would not ensure it
        out = np.einsum("ij,j->i", g, _WEIGHTS).real
        return float(out[0]) if scalar else np.ascontiguousarray(out)


@functools.lru_cache(maxsize=_PAIR_MEMO_SIZE)
def _pair_table(alpha: float, beta: float) -> tuple:
    """(bounds, pieces) of a pair without a closed form: 1/Gamma(beta) at
    x = 0, the contour below 40**alpha and the series from it."""
    kernels = _PairKernels(alpha, beta)
    return (5e-324, _ASYM_CUTOFF**alpha), (rgamma(beta), kernels.contour, kernels.series)


def _term_counts(table: tuple, ls: np.ndarray):
    """Each entry's term count by the table's step function of l, and the largest."""
    n = table[2].take(table[1].searchsorted(ls, "right"))
    return n, np.maximum.reduce(n)


def ml_asymptotic(params: MLParams, x: float) -> float:
    """Algebraic large-x series -sum_{k>=1} (-x)^{-k} / Gamma(beta - alpha*k),
    truncated at the smallest term of its magnitude envelope: the oracle's
    series. Raises DomainError below its crossover 40**alpha, and at (1, 1),
    where every term is 0."""
    x, _ = argument(x, "ml_asymptotic", array=False)
    (_, cutoff), (_, _, series) = _pair_table(*params)
    if x < cutoff:
        raise DomainError(
            f"ml_asymptotic requires x >= the crossover 40**alpha = {cutoff!r}, got {x!r}")
    if params == (1.0, 1.0):  # every coefficient 1/Gamma(1 - k) is 0
        raise DomainError("ml_asymptotic at (alpha, beta) = (1, 1): the algebraic series is "
                          "identically zero, while E_{1,1}(-x) = exp(-x) > 0; use ml_oracle")
    return series(x)


def _exp_neg(x):
    return libm(x).exp(-x)


# (1 - erfcx(x))/x for 0 < x < 0.5 without the difference's cancellation: the sum
# of (-x)^k/Gamma(k/2 + 3/2) for k <= 24, whose term 25 is below 1e-17 of it
_h32_near = horner(tuple((-1.0) ** k * rgamma(k / 2 + 1.5) for k in range(24, -1, -1)))


def _h32_far(x):
    return (1.0 - _erfcx(x)) / x


def _hh_near(x):
    return _RGAMMA_HALF - x * _erfcx(x)


def _hh_far(x):
    # 1/sqrt(pi) - x*erfcx(x) for x >= 26, without the difference's cancellation
    return erfcx_series_tail(x) / _SQRT_PI


def _one_two_nonzero(x):
    return -libm(x).expm1(-x) / x


# the (bounds, pieces) of the pairs with an erfcx/exp closed form
_CLOSED_FORMS = {
    (0.5, 1.0): _ERFCX,
    (0.5, 1.5): ((5e-324, 0.5), (_RGAMMA_THREE_HALVES, _h32_near, _h32_far)),
    (0.5, 0.5): ((26.0,), (_hh_near, _hh_far)),
    (1.0, 1.0): ((), (_exp_neg,)),
    (1.0, 2.0): ((5e-324,), (1.0, _one_two_nonzero)),
}


def ml_closed_form(params: MLParams, x: float) -> float | None:
    """Exact value for the parameter pairs with an erfcx/exp closed form,
    else None."""
    x, _ = argument(x, "ml_closed_form", array=False)
    route = _CLOSED_FORMS.get(params)
    return None if route is None else piecewise(x, route[0], route[1])


def ml_oracle(params: MLParams, x):
    """Reference value of E_{alpha,beta}(-x) at x >= 0, a float, a 1-D array
    or a `GridSpec`'s points: closed form where one exists, 1/Gamma(beta) at
    x = 0, the asymptotic series once x**(1/alpha) >= 40, else the contour
    integral."""
    bounds, pieces = _CLOSED_FORMS.get(params) or _pair_table(*params)
    if type(x) is float and 0.0 <= x < math.inf:  # the common case skips the test
        return piecewise(x, bounds, pieces)
    x, order = argument(x, "ml_oracle")
    return restore_order(piecewise(x, bounds, pieces), order)
