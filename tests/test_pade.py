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
    coeffs_from_closed_form,
    eval_approx,
    solve_hermite_pade,
)
from mlpade.pade import snapped_rgamma
from mlpade.special import gamma, rgamma

PI = math.pi
SQRT_PI = math.sqrt(math.pi)

# diagonal alpha above which the denominator has a nonnegative real root
ALPHA_STAR = 0.6512075036295607

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


def test_snapped_rgamma():
    assert snapped_rgamma(0.0) == 0.0
    assert snapped_rgamma(3e-13) == 0.0  # computed beta - 2*alpha, snap to pole
    assert snapped_rgamma(-1.0 + 1e-13) == 0.0
    assert snapped_rgamma(0.5) == rgamma(0.5)


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
        want = -gba * snapped_rgamma(b - 2.0 * a)
        # abs slack covers eps*x rounding amplification when the limit is 0
        assert got == pytest.approx(want, rel=1e-4, abs=1e-7), (a, b)


def test_diagonal_x_squared_limit():
    # x^2 A(x) -> sin(pi a) Gamma(1+a)/pi via the reflection identity
    x = 1e8
    for a in (0.1, 0.25, 0.4, 0.5, 0.6):
        ap = build_approx(classify(a, a))
        want = math.sin(PI * a) * gamma(1.0 + a) / PI
        assert x * x * eval_approx(ap, x) == pytest.approx(want, rel=1e-6), a


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
    # the threshold alpha* is the root of d1^2 = 4 d2 for the diagonal pair
    build_approx(classify(0.6512, 0.6512))
    with pytest.raises(ConstructionError):
        build_approx(classify(0.6513, 0.6513))

    def disc(a):
        d1 = 2.0 * gamma(1.0 - a) ** 2 * snapped_rgamma(1.0 - 2.0 * a) / gamma(1.0 + a)
        return d1 * d1 - 4.0 * gamma(1.0 - a) / gamma(1.0 + a)

    lo, hi = 0.6, 0.7
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if disc(mid) < 0.0 else (lo, mid)
    assert abs(lo - ALPHA_STAR) <= 1e-12


def test_invalid_rational_rejected():
    with pytest.raises(ConstructionError):
        RationalApprox(1.0, 0.5, 1.0, -0.5, Regime.GENERAL_SUB)
    with pytest.raises(ConstructionError):
        # real roots with d1 <= 0 lie on the nonnegative axis
        RationalApprox(1.0, 0.5, -3.0, 1.0, Regime.GENERAL_SUB)


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
