"""Tests for approximant construction and evaluation."""

import math

import numpy as np
import pytest

from mlpade import (
    ConstructionError,
    DegenerateSystemError,
    DomainError,
    ParameterDomainError,
    RationalApprox,
    Regime,
    build_approx,
    classify,
    eval_approx,
)
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
    assert classify(0.5, 1.5).regime is Regime.GENERAL_SUB
    assert classify(0.5, 1.0).regime is Regime.BETA_ONE
    assert classify(0.5, 0.5).regime is Regime.DIAGONAL
    assert classify(1.0, 2.0).regime is Regime.ALPHA_ONE
    assert classify(1.0, 1.0).regime is Regime.PURE_EXPONENTIAL


@pytest.mark.parametrize(
    "a,b", [(1.0, 0.5), (0.0, 1.0), (1.5, 2.0), (-0.5, 1.0), (0.5, 0.4)]
)
def test_classify_rejects_invalid(a, b):
    with pytest.raises(ParameterDomainError):
        classify(a, b)


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
        except DegenerateSystemError:
            with pytest.raises(DegenerateSystemError):
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
        except (ConstructionError, DegenerateSystemError):
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
    for x in (0.0, 0.37, 12.5, 2e100):
        assert eval_approx(ap, np.array([x]))[0] == eval_approx(ap, x)


def test_eval_array_exponential_regime_uses_math_exp():
    ap = build_approx(classify(1.0, 1.0))
    xs = np.geomspace(1e-4, 700.0, 4001)
    assert eval_approx(ap, xs).tolist() == [math.exp(-x) for x in xs.tolist()]


@pytest.mark.parametrize("bad", [-1e-300, -2.0, math.nan, math.inf])
def test_eval_array_rejects_bad_entries(bad):
    ap = build_approx(classify(0.5, 1.5))
    xs = np.array([0.0, 1.0, bad, 3.0])
    with pytest.raises(DomainError, match="eval_approx requires finite x >= 0"):
        eval_approx(ap, xs)
    with pytest.raises(DomainError):
        eval_approx(ap, bad)


def test_eval_array_shapes():
    ap = build_approx(classify(0.5, 1.5))
    assert eval_approx(ap, np.array([])).shape == (0,)
    assert eval_approx(ap, np.array([1, 2])).tolist() == [eval_approx(ap, 1.0), eval_approx(ap, 2.0)]
    with pytest.raises(DomainError, match="1-D"):
        eval_approx(ap, np.ones((2, 2)))


# one pair per regime
REGIME_PAIRS = [(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0)]


@pytest.mark.parametrize("a,b", REGIME_PAIRS)
def test_build_approx_is_memoised_per_params(a, b):
    # two equal MLParams built apart share one approximant
    assert build_approx(classify(a, b)) is build_approx(classify(a, b))


@pytest.mark.parametrize("a,b", [(0.8, 0.8), (0.5, 172.0)])
def test_failed_construction_is_not_memoised(a, b):
    for _ in range(2):
        with pytest.raises(ConstructionError):
            build_approx(classify(a, b))


def test_build_approx_memo_is_bounded():
    bound = build_approx.cache_info().maxsize
    for k in range(bound + 50):
        build_approx(classify(0.5, 2.0 + k / 64.0))
        assert build_approx.cache_info().currsize <= bound
    assert build_approx.cache_info().currsize == bound


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
    with pytest.raises(DegenerateSystemError):
        build_approx(classify(1e-9, 2.0))
