"""Tests for approximant construction and evaluation."""

import math
import random
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from mlpade import (
    ConstructionError,
    DomainError,
    MLParams,
    ParameterDomainError,
    RationalApprox,
    Regime,
    build_approx,
    classify,
    eval_approx,
    inv_pade,
    ml_oracle,
)
from mlpade.params import _APPROX_MEMO_SIZE, _PAIR_MEMO_SIZE
from mlpade.reference import _pair_table
from mlpade.special import gamma, rgamma
from paper_formulas import coeffs_from_closed_form, solve_hermite_pade

PI = math.pi
SQRT_PI = math.sqrt(math.pi)

# coefficient grid for the cross-construction and matching-property checks
GRID_ALPHAS = [round(0.1 * k, 1) for k in range(1, 10)]


def grid_pairs():
    for a in GRID_ALPHAS:
        for b in (a + 0.1, 1.0, 1.5, 2.0, 3.0):
            b = round(b, 10)
            if b <= a:
                continue
            yield a, b


def test_classify_regimes():
    for (a, b), regime in [
        ((0.5, 1.5), Regime.GENERAL_SUB),
        ((0.5, 1.0), Regime.BETA_ONE),
        ((0.5, 0.5), Regime.DIAGONAL),
        ((1.0, 2.0), Regime.ALPHA_ONE),
        ((1.0, 1.0), Regime.PURE_EXPONENTIAL),
    ]:
        assert classify(a, b).regime is regime
        assert MLParams(a, b).regime is regime


def test_params_are_the_pair_alone():
    assert MLParams._fields == ("alpha", "beta")
    # a regime cannot be stored beside the pair, so it cannot contradict it
    with pytest.raises(TypeError):
        MLParams(0.5, 1.5, Regime.DIAGONAL)


# MLParams refuses them too, so a record made by hand cannot reach
# build_approx: (2, 3) would build with A(1) = 0.4146 against
# E_{2,3}(-1) = 0.4597
@pytest.mark.parametrize(
    "a,b",
    [(1.0, 0.5), (0.0, 1.0), (1.5, 2.0), (-0.5, 1.0), (0.5, 0.4),
     (2.0, 3.0), (0.8, 0.5), (0.5, math.nan)],
)
def test_classify_rejects_invalid(a, b):
    with pytest.raises(ParameterDomainError):
        classify(a, b)
    with pytest.raises(ParameterDomainError):
        MLParams(a, b)


def test_params_replace_is_validated():
    assert MLParams(0.5, 1.5)._replace(beta=2.0) == (0.5, 2.0)
    with pytest.raises(ParameterDomainError):
        MLParams(0.5, 1.5)._replace(alpha=2.0)


def test_worked_coefficients_general():
    # displayed approximant for (1/2, 3/2)
    ap = build_approx(classify(0.5, 1.5))
    assert ap.n0 == pytest.approx(2.0 / SQRT_PI, rel=1e-12)
    assert ap.n1 == pytest.approx((4.0 - PI) / (PI - 2.0), rel=1e-12)
    assert ap.d1 == pytest.approx(SQRT_PI / (PI - 2.0), rel=1e-12)
    assert ap.d2 == pytest.approx((4.0 - PI) / (PI - 2.0), rel=1e-12)


def test_worked_coefficients_beta_one():
    ap = build_approx(classify(0.5, 1.0))
    assert ap.n0 == 1.0
    assert ap.n1 == pytest.approx((PI - 2.0) / SQRT_PI, rel=1e-12)
    assert ap.d1 == pytest.approx(SQRT_PI, rel=1e-12)
    assert ap.d2 == pytest.approx(PI - 2.0, rel=1e-12)


def test_worked_coefficients_diagonal():
    ap = build_approx(classify(0.5, 0.5))
    assert ap.n0 == pytest.approx(1.0 / SQRT_PI, rel=1e-12)
    assert ap.n1 == 0.0
    assert ap.d1 == 0.0  # the 1/Gamma(0) factor vanishes exactly
    assert ap.d2 == pytest.approx(2.0, rel=1e-12)


def test_worked_coefficients_alpha_one():
    ap = build_approx(classify(1.0, 2.0))
    assert (ap.n0, ap.n1, ap.d1, ap.d2) == (1.0, 0.5, 1.0, 0.5)


def test_raw_coefficients_worked_pair():
    # q0 = (pi-2)/(4-pi), q1 = sqrt(pi)/(4-pi) for (1/2, 3/2)
    co = solve_hermite_pade(classify(0.5, 1.5))
    assert co.p0 == 0.0
    assert co.q0 == pytest.approx((PI - 2.0) / (4.0 - PI), rel=1e-12)
    assert co.q1 == pytest.approx(SQRT_PI / (4.0 - PI), rel=1e-12)
    # beta = 1 variant: q0* = 1/(pi-2), q1* = sqrt(pi)/(pi-2)
    co = coeffs_from_closed_form(classify(0.5, 1.0))
    assert co.q0 == pytest.approx(1.0 / (PI - 2.0), rel=1e-12)
    assert co.q1 == pytest.approx(SQRT_PI / (PI - 2.0), rel=1e-12)


def test_construction_paths_agree_on_grid():
    checked = 0
    for a, b in grid_pairs():
        params = classify(a, b)
        if params.regime not in (Regime.GENERAL_SUB, Regime.BETA_ONE):
            continue
        try:
            num = solve_hermite_pade(params)
        except ConstructionError:
            with pytest.raises(ConstructionError):
                coeffs_from_closed_form(params)
            continue
        ref = coeffs_from_closed_form(params)
        for g, w in ((num.p1, ref.p1), (num.q0, ref.q0), (num.q1, ref.q1)):
            assert g == pytest.approx(w, rel=1e-10, abs=1e-10 * max(1.0, abs(w)))
        checked += 1
    assert checked > 30


def test_log_convexity_denominator_positive():
    for a, b in grid_pairs():
        if a == 1.0:
            continue
        assert gamma(b + a) * gamma(b - a) - gamma(b) ** 2 > 0.0, (a, b)


def _buildable_pairs():
    out = []
    for a, b in grid_pairs():
        try:
            out.append((a, b, build_approx(classify(a, b))))
        except ConstructionError:
            continue
    return out


def test_origin_value_bit_exact():
    for a, b, ap in _buildable_pairs():
        assert eval_approx(ap, 0.0) == rgamma(b), (a, b)


def test_derivative_matching_at_origin():
    # n1 - n0*d1 = -rgamma(beta+alpha) for the non-diagonal regimes
    for a, b, ap in _buildable_pairs():
        if ap.regime in (Regime.DIAGONAL, Regime.PURE_EXPONENTIAL):
            continue
        want = -rgamma(b + a)
        assert ap.n1 - ap.n0 * ap.d1 == pytest.approx(want, rel=1e-10), (a, b)


def test_asymptotic_leading_term():
    x = 1e8
    for a, b, ap in _buildable_pairs():
        if ap.regime in (Regime.DIAGONAL, Regime.PURE_EXPONENTIAL):
            want = None
        else:
            want = rgamma(b - a)
        if want is None:
            continue
        assert x * eval_approx(ap, x) == pytest.approx(want, rel=1e-6), (a, b)


def test_asymptotic_second_term():
    # (Gamma(b-a) x A(x) - 1) x -> -Gamma(b-a) rgamma(b-2a)
    x = 1e8
    for a, b, ap in _buildable_pairs():
        if ap.regime not in (Regime.GENERAL_SUB, Regime.BETA_ONE):
            continue
        gba = gamma(b - a)
        got = (gba * x * eval_approx(ap, x) - 1.0) * x
        want = -gba * rgamma(b - 2.0 * a)
        # abs slack covers eps*x rounding amplification when the limit is 0
        assert got == pytest.approx(want, rel=1e-4, abs=1e-7), (a, b)


def test_diagonal_x_squared_limit():
    # x^2 A(x) -> sin(pi a) Gamma(1+a)/pi via the reflection identity
    x = 1e8
    for a in (0.1, 0.25, 0.4, 0.45, 0.5):
        ap = build_approx(classify(a, a))
        want = math.sin(PI * a) * gamma(1.0 + a) / PI
        assert x * x * eval_approx(ap, x) == pytest.approx(want, rel=1e-6), a
    # past alpha = 1/2 the diagonal approximant is refused
    with pytest.raises(ConstructionError, match="alpha <= 1/2"):
        build_approx(classify(0.6, 0.6))


def test_positive_and_decreasing_on_grid():
    xs = np.geomspace(1e-3, 1e3, 400)
    for a, b, ap in _buildable_pairs():
        vals = np.array([eval_approx(ap, float(x)) for x in xs])
        assert np.all(vals > 0.0), (a, b)
        assert np.all(np.diff(vals) < 0.0), (a, b)


def test_diagonal_construction_fails_when_denominator_has_root():
    # for alpha = beta around 0.75 the quadratic denominator acquires a
    # nonnegative real root and construction must refuse
    with pytest.raises(ConstructionError):
        build_approx(classify(0.75, 0.75))
    # d1 carries rgamma(1 - 2 alpha), zero at alpha = 1/2 and negative just
    # past it, where A rises above A(0) before it falls
    assert build_approx(classify(0.5, 0.5)).d1 == 0.0
    for a in (math.nextafter(0.5, 1.0), 0.55, 0.6):
        with pytest.raises(ConstructionError, match="alpha <= 1/2"):
            build_approx(classify(a, a))


def test_invalid_rational_rejected():
    for n0, n1, d1, d2 in (
        (1.0, 0.5, 1.0, -0.5),  # d2 < 0
        (1.0, 0.5, -3.0, 1.0),  # a denominator root on the positive axis
        (1.0, 2.0, 1.0, 0.5),  # root-free denominator, but A'(0) > 0
        (1.0, -0.5, 1.0, 1.0),  # n1 < 0: A turns negative at x = 2
        (0.0, 0.5, 1.0, 1.0),  # n0 <= 0
        (-1.0, 0.0, 1.0, 1.0),
        (math.nan, 0.5, 1.0, 1.0),
    ):
        with pytest.raises(ConstructionError, match="positive and nonincreasing"):
            RationalApprox(n0, n1, d1, d2, Regime.GENERAL_SUB)


def test_eval_examples():
    # (1, 2) at x=1: (1 + 1/2)/(1 + 1 + 1/2) = 0.6
    ap = build_approx(classify(1.0, 2.0))
    assert eval_approx(ap, 1.0) == pytest.approx(0.6, rel=1e-15)
    # pure exponential regime evaluates exactly
    ap = build_approx(classify(1.0, 1.0))
    assert eval_approx(ap, 2.5) == math.exp(-2.5)


def test_eval_extreme_argument():
    ap = build_approx(classify(0.5, 1.5))
    x = 1e200
    got = eval_approx(ap, x)
    assert math.isfinite(got)
    assert got == pytest.approx(ap.n1 / (ap.d2 * x), rel=1e-10)


@pytest.mark.parametrize("a,b,x", [(1.0, 1.0000001, 1e303), (1.0, 1.0000001, 1e305), (0.5, 1.0, 1.7e308)])
def test_eval_extreme_argument_does_not_overflow(a, b, x):
    # d2 > 1 here, so d2 * x overflows near the top of the double range
    ap = build_approx(classify(a, b))
    assert ap.d2 > 1.0
    got = eval_approx(ap, x)
    assert got > 0.0
    assert got == pytest.approx(ap.n1 / ap.d2 / x, rel=1e-9)
    assert eval_approx(ap, np.array([x]))[0] == got


def test_eval_rejects_negative():
    ap = build_approx(classify(0.5, 1.5))
    with pytest.raises(DomainError):
        eval_approx(ap, -0.1)


ARRAY_PAIRS = [(0.5, 1.5), (0.3, 0.9), (0.45, 0.45), (1.0, 2.5), (1.0, 1.0), (0.5, 1.0)]


@pytest.mark.parametrize("a,b", ARRAY_PAIRS)
def test_eval_array_matches_float_calls_bitwise(a, b):
    ap = build_approx(classify(a, b))
    # 0, the usual range, both sides of the 1e100 rescaling and far past it
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 97), [1e100, 1.0000001e100, 1e150, 1e300]])
    got = eval_approx(ap, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    want = [eval_approx(ap, x) for x in xs.tolist()]
    assert got.tolist() == want
    assert got[0] == ap.n0
    # out of order: descending, repeated entries, zeros in the middle, and
    # each range bound of the oracle and the approximant, shuffled
    bounds = [0.5, 26.0, 40.0**a, 1e100, math.nextafter(1e100, math.inf)]
    mixed = np.random.default_rng(3).permutation(np.concatenate([bounds * 2, [0.0, 0.0], xs[::7]]))
    for ys in (xs[::-1], np.repeat(xs[::9], 3), np.concatenate([xs[40:], [0.0, -0.0], xs[:40]]), mixed):
        assert eval_approx(ap, ys).tolist() == [eval_approx(ap, y) for y in ys.tolist()]
    for x in (0.0, 0.37, 12.5, 2e100):
        assert eval_approx(ap, np.array([x]))[0] == eval_approx(ap, x)


def test_eval_array_exponential_regime_uses_math_exp():
    ap = build_approx(classify(1.0, 1.0))
    xs = np.geomspace(1e-4, 700.0, 4001)
    assert eval_approx(ap, xs).tolist() == [math.exp(-x) for x in xs.tolist()]


@pytest.mark.parametrize("bad", [-1e-300, -1.0, -2.0, math.nan, math.inf])
def test_eval_array_rejects_bad_entries(bad):
    # an array with a bad entry first, last or inside gets the float call's
    # message, in the exponential regime too
    for a, b in [(0.5, 1.5), (1.0, 1.0)]:
        ap = build_approx(classify(a, b))
        with pytest.raises(DomainError, match="^eval_approx requires finite x >= 0, got ") as float_call:
            eval_approx(ap, bad)
        # with a second bad entry after it, the first in the caller's order is named
        for xs in ([bad, 1.0, 3.0], [0.0, 1.0, bad], [0.0, 1.0, bad, 3.0], [2.0, bad, -5.0],
                   [2.0, bad, math.nan]):
            with pytest.raises(DomainError, match=f"^{re.escape(str(float_call.value))}$"):
                eval_approx(ap, np.array(xs))


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (1.0, 1.0)])
def test_eval_array_accepts_negative_zero(a, b):
    ap = build_approx(classify(a, b))
    xs = np.array([-0.0, 1.0, 2e100, -0.0])
    assert eval_approx(ap, xs).tolist() == [eval_approx(ap, x) for x in xs.tolist()]


def test_eval_array_shapes():
    ap = build_approx(classify(0.5, 1.5))
    assert eval_approx(ap, np.array([])).shape == (0,)
    assert eval_approx(ap, np.array([1, 2])).tolist() == [eval_approx(ap, 1.0), eval_approx(ap, 2.0)]
    with pytest.raises(DomainError, match="1-D"):
        eval_approx(ap, np.ones((2, 2)))


# one pair per regime
REGIME_PAIRS = [(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0)]


@pytest.mark.parametrize("a,b", REGIME_PAIRS)
def test_eval_float_like_scalar_gives_float(a, b):
    ap = build_approx(classify(a, b))
    for x in (0, 3, 10**101):  # both sides of the 1e100 rescaling
        for arg in (np.float64(x), x):
            v = eval_approx(ap, arg)
            assert type(v) is float and v == eval_approx(ap, float(x))


@pytest.mark.parametrize("a,b", REGIME_PAIRS)
def test_build_approx_is_memoised_per_params(a, b):
    # two equal MLParams built apart share one approximant
    assert build_approx(classify(a, b)) is build_approx(classify(a, b))


def test_hand_made_params_share_the_memoised_approximant():
    ap = build_approx(MLParams(0.5, 1.5))
    assert ap is build_approx(classify(0.5, 1.5))
    assert eval_approx(ap, 1.0) == pytest.approx(0.569, abs=5e-4)


@pytest.mark.parametrize("a,b", [(0.8, 0.8), (0.5, 172.0)])
def test_failed_construction_is_not_memoised(a, b):
    for _ in range(2):
        with pytest.raises(ConstructionError):
            build_approx(classify(a, b))


@pytest.mark.parametrize("memo, fill, bound", [
    (build_approx, build_approx, _APPROX_MEMO_SIZE),
    # the series' coefficient tables
    (_pair_table, lambda params: ml_oracle(params, 1e4), _PAIR_MEMO_SIZE),
    # the contour's node vectors
    (_pair_table, lambda params: ml_oracle(params, 1.0), _PAIR_MEMO_SIZE),
], ids=["build_approx", "series_table", "contour_nodes"])
def test_per_pair_memo_is_bounded(memo, fill, bound):
    assert memo.cache_info().maxsize == bound
    memo.cache_clear()  # so that the fill alone must bring the memo to its bound
    for k in range(bound + 50):
        fill(classify(0.5, 2.0 + k / 64.0))
        assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound


# what 128 oracle entries held (the memo comment in mlpade.params), the
# budget a full approximant memo is held to
_ORACLE_MEMO_BYTES = 517_000


def test_full_approximant_memo_stays_under_the_oracle_memo_budget():
    build_approx.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(_APPROX_MEMO_SIZE):  # each pair made here and kept by the memo alone
            build_approx(classify(0.5, 2.0 + k / 64.0))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert build_approx.cache_info().currsize == _APPROX_MEMO_SIZE
    assert held < _ORACLE_MEMO_BYTES, held


def _sweep_pairs(n, seed):
    """n distinct seeded pairs that build, from all five regimes."""
    rng = random.Random(seed)
    pairs = {(1.0, 1.0)}
    while len(pairs) < n:
        a = rng.uniform(0.05, 0.95)
        pairs.add(rng.choice([
            (a, a + rng.uniform(0.01, 10.0)),  # general
            (a, 1.0),
            (a / 2.0, a / 2.0),  # the diagonal builds up to alpha = 1/2
            (1.0, 1.0 + rng.uniform(0.01, 10.0)),
        ]))
    return [classify(a, b) for a, b in sorted(pairs)]


def test_sweep_longer_than_the_oracle_memo_builds_each_approximant_once():
    pairs = _sweep_pairs(300, seed=7)
    assert {p.regime for p in pairs} == set(Regime)
    for _ in range(2):
        misses = build_approx.cache_info().misses
        for params in pairs:
            inv_pade(params, 0.5 * rgamma(params.beta))
    # the second pass finds every approximant the first one built
    assert build_approx.cache_info().misses == misses


# b from 72, where forming Gamma(b)^2 would overflow, up to Gamma(b + a)'s
# overflow at b + a = 171.62
LARGE_BETA_PAIRS = [
    (0.1, 72.5), (0.5, 72.3), (0.9, 72.2), (0.3, 100.0), (0.7, 140.0),
    (0.5, 171.0), (0.9, 170.7), (0.2, 171.4), (0.01, 171.6),
]


@pytest.mark.parametrize("a,b", LARGE_BETA_PAIRS)
def test_large_beta_builds_with_exact_origin_value(a, b):
    ap = build_approx(classify(a, b))
    assert ap.n0 == rgamma(b)
    assert eval_approx(ap, 0.0) == rgamma(b)


@pytest.mark.parametrize("a,b", LARGE_BETA_PAIRS)
def test_large_beta_matching_equations(a, b):
    ap = build_approx(classify(a, b))
    n0, n1, d1, d2 = ap.n0, ap.n1, ap.d1, ap.d2
    # A'(0), and the 1/x and 1/x^2 terms of the asymptotic series
    for got, want, scale in (
        (n1 - n0 * d1, -rgamma(b + a), n0 * d1),
        (n1 / d2, rgamma(b - a), n1 / d2),
        ((n0 - n1 * d1 / d2) / d2, -rgamma(b - 2.0 * a), n0 / d2),
    ):
        assert abs(got - want) <= 1e-12 * abs(scale), (got, want)


@pytest.mark.parametrize("a,b", LARGE_BETA_PAIRS)
def test_large_beta_positive_and_decreasing(a, b):
    vals = eval_approx(build_approx(classify(a, b)), np.geomspace(1e-3, 1e3, 400))
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


# a = 1 too: past b = 170.62, Gamma(b + 1) overflows and n1 would be 0
@pytest.mark.parametrize(
    "a,b", [(0.5, 171.3), (0.5, 172.0), (0.01, 171.62), (1.0, 171.0), (1.0, 172.0)]
)
def test_gamma_overflow_is_a_construction_error(a, b):
    with pytest.raises(ConstructionError, match=r"Gamma\(beta \+ alpha\).*overflows"):
        build_approx(classify(a, b))


def test_tiny_alpha_is_degenerate():
    with pytest.raises(ConstructionError, match="denominator degenerate"):
        build_approx(classify(1e-9, 2.0))


@pytest.mark.parametrize("a,b", [(1e-5, 50.0), (3e-6, 50.0)])
def test_coefficients_swamped_by_rounding_are_refused(a, b):
    # the gaps g - p and t pass the degeneracy test, but the coefficients'
    # relative error, about eps*b^2*(8 + ln b)/a^2, is 0.066 and 0.73 here:
    # d2 came out 0.98657 and 1.00304 against mpmath's 0.99992 and 0.99998
    with pytest.raises(ConstructionError, match=(
            rf"^coefficients swamped by rounding for alpha={a!r}, beta={b!r}: "
            r"estimated relative error [0-9.e-]+ > 1e-6$")):
        build_approx(classify(a, b))


def _coefficients_40_digits(a, b):
    """n1, d1, d2 by the construction's formulas in 40-digit mpmath."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        gb, gbm = mpmath.gamma(b), mpmath.gamma(b - a)
        g, p = gbm / gb, gb / mpmath.gamma(b + a)
        u = (g - p) / (1 - g * gbm * mpmath.rgamma(b - 2 * a))
        return [float(v) for v in (g * u / gbm, u + p, g * u)]


def test_built_coefficients_are_within_1e_6_of_mpmath_at_small_alpha():
    # seeded pairs around the rounding guard (alpha from 1e-6 to 1e-2): about
    # half are refused, and each one built is within 1e-6 relative
    rng = np.random.default_rng(5)
    built = 0
    for a, d in zip(10.0 ** rng.uniform(-6.0, -2.0, 200), 10.0 ** rng.uniform(-3.0, 2.2, 200)):
        a, b = float(a), float(a + d)
        try:
            ap = build_approx(classify(a, b))
        except ConstructionError:
            continue
        built += 1
        want = _coefficients_40_digits(a, b)
        assert [ap.n1, ap.d1, ap.d2] == pytest.approx(want, rel=1e-6, abs=0.0), (a, b)
    assert 50 <= built <= 150
