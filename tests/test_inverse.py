"""Tests for the algebraic inverse of the approximants."""

import math

import numpy as np
import pytest

from mlpade import (
    ConstructionError,
    DomainError,
    ResultOverflowError,
    build_approx,
    classify,
    eval_approx,
    inv_domain,
    inv_pade,
    inv_pade_from_approx,
)
from mlpade.special import rgamma

SQRT_PI = math.sqrt(math.pi)

WORKED_PAIRS = [(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0)]


def test_inv_domain():
    assert inv_domain(classify(0.5, 1.0)) == (0.0, 1.0)
    assert inv_domain(classify(0.5, 0.5)) == (0.0, 1.0 / SQRT_PI)
    assert inv_domain(classify(1.0, 2.0)) == (0.0, 1.0)


@pytest.mark.parametrize("a,b", WORKED_PAIRS + [(0.3, 0.8), (1.0, 1.0)])
def test_boundary_is_exact_zero(a, b):
    assert inv_pade(classify(a, b), rgamma(b)) == 0.0


def test_alpha_one_worked_value():
    # eval_approx((1,2), 1.0) = 0.6 exactly, so the inverse of 0.6 is 1.0
    assert inv_pade(classify(1.0, 2.0), 0.6) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_closed_form():
    # invert n0/(1 + 2 x^2) = y by hand: X = sqrt((1/(sqrt(pi) y) - 1)/2)
    params = classify(0.5, 0.5)
    for y in np.geomspace(1e-6, 1.0 / SQRT_PI, 60):
        y = min(float(y), 1.0 / SQRT_PI)
        want = math.sqrt(max(0.0, (1.0 / (SQRT_PI * y) - 1.0) / 2.0))
        # abs slack: near the boundary the hand formula itself only
        # resolves x to sqrt(eps)
        assert inv_pade(params, y) == pytest.approx(want, rel=1e-9, abs=2e-8)


@pytest.mark.parametrize("a,b", WORKED_PAIRS + [(0.3, 0.9), (0.6, 2.0)])
def test_round_trip_eval_of_inverse(a, b):
    params = classify(a, b)
    ap = build_approx(params)
    hi = rgamma(b)
    for y in np.geomspace(hi * 1e-6, hi, 200):
        y = min(float(y), hi)
        x = inv_pade_from_approx(ap, y)
        assert x >= 0.0
        assert eval_approx(ap, x) == pytest.approx(y, rel=1e-9)


@pytest.mark.parametrize("a,b", WORKED_PAIRS)
def test_forward_round_trip(a, b):
    params = classify(a, b)
    ap = build_approx(params)
    for x in np.geomspace(1e-3, 1e3, 120):
        y = eval_approx(ap, float(x))
        assert inv_pade_from_approx(ap, y) == pytest.approx(float(x), rel=1e-8)


@pytest.mark.parametrize("a,b", WORKED_PAIRS)
def test_divergence_at_origin(a, b):
    assert inv_pade(classify(a, b), rgamma(b) * 1e-8) > 1e3


def test_pure_exponential_inverse_is_log():
    params = classify(1.0, 1.0)
    for y in np.geomspace(1e-12, 1.0, 80):
        y = min(float(y), 1.0)
        assert inv_pade(params, y) == pytest.approx(-math.log(y), rel=1e-14)


def test_domain_errors():
    params = classify(0.5, 1.5)
    hi = rgamma(1.5)
    with pytest.raises(DomainError):
        inv_pade(params, 0.0)
    with pytest.raises(DomainError):
        inv_pade(params, -0.5)
    with pytest.raises(DomainError):
        inv_pade(params, hi * (1.0 + 1e-9))
    with pytest.raises(DomainError):
        inv_pade(classify(1.0, 1.0), 1.5)


def test_near_boundary_small_root_precision():
    # just below y = rgamma(beta) the small root must not lose precision
    params = classify(0.5, 1.5)
    ap = build_approx(params)
    hi = rgamma(1.5)
    for eps in (1e-8, 1e-10, 1e-12):
        y = hi * (1.0 - eps)
        x = inv_pade_from_approx(ap, y)
        assert 0.0 < x < 1e-4
        assert eval_approx(ap, x) == pytest.approx(y, rel=1e-12)


def test_exponential_inverse_at_one_is_positive_zero():
    assert math.copysign(1.0, inv_pade(classify(1.0, 1.0), 1.0)) == 1.0


def test_inv_pade_matches_inverse_of_built_approx():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = float(rng.uniform(0.05, 1.0))
        b = float(rng.uniform(a, 4.0))
        params = classify(a, b)
        ap = build_approx(params)
        for y in rgamma(b) * rng.uniform(1e-6, 1.0, 5):
            assert inv_pade(params, float(y)) == inv_pade_from_approx(ap, float(y))


# every regime; the diagonal approximant is refused past alpha = 1/2, where
# d1 turns negative, so (0.6, 0.6) has moved to (0.45, 0.45)
REGIME_PAIRS = WORKED_PAIRS + [(1.0, 1.0), (0.3, 0.3), (0.45, 0.45), (0.3, 0.9)]


def test_diagonal_past_one_half_has_no_inverse():
    with pytest.raises(ConstructionError, match="alpha <= 1/2"):
        inv_pade(classify(0.6, 0.6), 0.999 * rgamma(0.6))


@pytest.mark.parametrize("a,b", REGIME_PAIRS)
def test_round_trip_where_b_squared_overflows(a, b):
    # below y ~ 1e-154 the quadratic's b*b overflows; the root still fits
    ap = build_approx(classify(a, b))
    for y in np.geomspace(1e-300, 1e-150, 61):
        x = inv_pade_from_approx(ap, float(y))
        assert 0.0 < x < math.inf
        assert eval_approx(ap, x) == pytest.approx(float(y), rel=1e-9)


@pytest.mark.parametrize("a,b", REGIME_PAIRS + [(0.5, 10.0)])
def test_subnormal_y_gives_finite_root_or_typed_overflow(a, b):
    ap = build_approx(classify(a, b))
    for y in (2.2e-308, 1e-310, 1e-320, 5e-324):
        try:
            x = inv_pade_from_approx(ap, y)
        except ResultOverflowError as exc:
            assert "overflows" in str(exc)
        else:
            assert 0.0 <= x < math.inf


def test_root_overflow_is_typed():
    # X ~ n1/(d2 y) = 1/y for (1, 2) is beyond the largest double
    with pytest.raises(ResultOverflowError, match="overflows"):
        inv_pade(classify(1.0, 2.0), 1e-310)
    # the diagonal root ~ 1/sqrt(y) fits at every y
    assert inv_pade(classify(0.3, 0.3), 5e-324) > 1e161


@pytest.mark.parametrize("a,b", REGIME_PAIRS + [(0.05, 3.0), (0.5, 100.0), (0.9, 170.7)])
def test_root_just_below_boundary(a, b):
    # y <= n0 keeps the discriminant >= 0, so the last few ulps below the
    # boundary give a root, never an error
    ap = build_approx(classify(a, b))
    y = ap.n0
    for _ in range(8):
        y = math.nextafter(y, 0.0)
        x = inv_pade_from_approx(ap, y)
        assert 0.0 <= x < math.inf
        assert eval_approx(ap, x) == pytest.approx(y, rel=1e-12)


@pytest.mark.parametrize("a,b", [(0.5, 100.0), (0.3, 150.0), (0.9, 170.7)])
def test_large_beta_round_trip(a, b):
    params = classify(a, b)
    ap = build_approx(params)
    hi = rgamma(b)
    assert inv_pade(params, hi) == 0.0
    for y in np.geomspace(hi * 1e-6, hi, 200):
        y = min(float(y), hi)
        assert eval_approx(ap, inv_pade_from_approx(ap, y)) == pytest.approx(y, rel=1e-9)
