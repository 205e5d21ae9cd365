"""Tests for the high-accuracy reference evaluator."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import mlpade
from mlpade import (
    DomainError,
    NonConvergenceError,
    classify,
    ml_asymptotic,
    ml_closed_form,
    ml_oracle,
    ml_taylor,
)
from mlpade.special import erfcx, rgamma
from talbot_reference import ml_talbot

# values frozen from an independent 60-digit mpmath series summation
FROZEN = {
    (0.3, 0.7, 1.0): 0.31378877553687531,
    (0.7, 1.3, 10.0): 0.067866176036478593,
    (0.9, 2.0, 15.0): 0.069028077051786624,
    (0.45, 0.9, 8.0): 0.063000129425177368,
    (0.6, 0.6, 7.0): 0.0059423373032661807,
    (1.0, 1.5, 12.0): 0.049297538391518155,
}

CLOSED_FORM_PAIRS = [(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0)]


def test_taylor_at_origin():
    assert ml_taylor(classify(0.5, 1.5), 0.0) == pytest.approx(
        2.0 / math.sqrt(math.pi), rel=1e-15
    )
    assert ml_taylor(classify(0.3, 0.9), 0.0) == rgamma(0.9)
    assert ml_taylor(classify(1.0, 1.0), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-14
    )


def test_taylor_rejects_negative_argument():
    with pytest.raises(DomainError):
        ml_taylor(classify(0.5, 1.5), -1.0)


def test_taylor_nonconvergence_when_budget_too_small():
    # at alpha=0.3, x=5 the terms peak near k ~ 700, past the default budget
    with pytest.raises(NonConvergenceError):
        ml_taylor(classify(0.3, 0.7), 5.0)


def test_frozen_oracle_values():
    for (a, b, x), want in FROZEN.items():
        got = ml_oracle(classify(a, b), x)
        assert got == pytest.approx(want, rel=1e-10), (a, b, x)


def test_oracle_at_zero():
    for a, b in [(0.3, 0.8), (0.5, 1.5), (0.9, 0.9), (1.0, 3.0)]:
        assert ml_oracle(classify(a, b), 0.0) == rgamma(b)


def test_closed_forms():
    x = 1.7
    assert ml_closed_form(classify(0.5, 1.0), x) == erfcx(x)
    assert ml_closed_form(classify(0.5, 1.5), x) == pytest.approx(
        (1.0 - erfcx(x)) / x, rel=1e-15
    )
    assert ml_closed_form(classify(0.5, 0.5), x) == pytest.approx(
        1.0 / math.sqrt(math.pi) - x * erfcx(x), rel=1e-12
    )
    assert ml_closed_form(classify(1.0, 2.0), x) == pytest.approx(
        (1.0 - math.exp(-x)) / x, rel=1e-15
    )
    assert ml_closed_form(classify(1.0, 1.0), x) == math.exp(-x)
    assert ml_closed_form(classify(0.3, 0.7), x) is None


def test_closed_forms_at_zero_equal_rgamma_beta():
    for a, b in CLOSED_FORM_PAIRS:
        assert ml_closed_form(classify(a, b), 0.0) == rgamma(b)


@pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-6, 1e-4, 0.49, 0.51, 1.0])
def test_closed_forms_free_of_small_x_cancellation(x):
    # (1/2, 3/2) is (1 - erfcx(x))/x and (1, 2) is (1 - e^-x)/x: both must
    # keep full relative accuracy as x -> 0
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        half = (1 - mpmath.exp(xm * xm) * mpmath.erfc(xm)) / xm
        one = -mpmath.expm1(-xm) / xm
        for (a, b), want in (((0.5, 1.5), half), ((1.0, 2.0), one)):
            got = ml_closed_form(classify(a, b), x)
            assert abs(got - want) <= 1e-14 * want, (a, b, x)


def test_taylor_matches_closed_form_small_x():
    for a, b in CLOSED_FORM_PAIRS:
        params = classify(a, b)
        for x in np.linspace(0.0, 2.0, 81):
            series = ml_taylor(params, float(x))
            closed = ml_closed_form(params, float(x))
            assert abs(series - closed) <= 1e-10, (a, b, x)


def test_asymptotic_matches_closed_form():
    # (1/2, 3/2) at x = 1e4: leading term 1/(Gamma(1) x)
    p = classify(0.5, 1.5)
    got = ml_asymptotic(p, 1e4)
    want = ml_closed_form(p, 1e4)
    assert got == pytest.approx(want, rel=1e-6)
    assert got == pytest.approx(1e-4, rel=1e-3)

    # (1/2, 1) at x = 100 against erfcx
    p = classify(0.5, 1.0)
    assert ml_asymptotic(p, 100.0) == pytest.approx(erfcx(100.0), rel=1e-6)


def test_asymptotic_diagonal_pole_kills_first_term():
    # for alpha=beta=1/2 the k=1 coefficient is rgamma(0)=0, so the series
    # starts at the x^-2 term with coefficient -rgamma(-1/2) = 1/(2 sqrt(pi))
    p = classify(0.5, 0.5)
    x = 80.0
    got = ml_asymptotic(p, x)
    lead = -rgamma(-0.5) / (x * x)
    assert got == pytest.approx(lead, rel=1e-3)
    assert got == pytest.approx(ml_closed_form(p, x), rel=1e-10)


def test_asymptotic_requires_positive_x():
    with pytest.raises(DomainError):
        ml_asymptotic(classify(0.5, 1.5), 0.0)


def test_oracle_positive_and_nonincreasing():
    for a, b in [(0.3, 0.8), (0.55, 1.4), (0.8, 0.8), (1.0, 2.5)]:
        params = classify(a, b)
        vals = [ml_oracle(params, float(x)) for x in np.geomspace(1e-3, 1e3, 1000)]
        arr = np.array(vals)
        assert np.all(arr > 0.0), (a, b)
        assert np.all(np.diff(arr) <= 1e-15), (a, b)


def test_oracle_recurrence_identity():
    # E_{a,b}(-x) = -x E_{a,a+b}(-x) + 1/Gamma(b)
    for a, b in [(0.35, 0.9), (0.6, 1.1), (0.85, 0.85), (1.0, 1.7)]:
        left = classify(a, b)
        right = classify(a, a + b)
        for x in np.geomspace(1e-3, 1e3, 200):
            lhs = ml_oracle(left, float(x))
            rhs = -x * ml_oracle(right, float(x)) + rgamma(b)
            assert abs(lhs - rhs) <= 1e-9, (a, b, x)


def test_oracle_mid_range_continuity():
    # no visible jump across the Taylor/asymptotic crossovers
    params = classify(0.75, 1.2)
    xs = np.geomspace(1.0, 60.0, 600)
    vals = np.array([ml_oracle(params, float(x)) for x in xs])
    ratios = vals[1:] / vals[:-1]
    assert np.all(ratios > 0.8) and np.all(ratios < 1.0 + 1e-12)


def test_taylor_refuses_large_terms_and_agrees_where_it_returns():
    # at (0.3, 0.9), x = 2 the terms reach ~e^10: cancellation would eat the
    # double-precision sum, so it refuses instead of returning a rough value
    with pytest.raises(NonConvergenceError):
        ml_taylor(classify(0.3, 0.9), 2.0)
    for a, b in [(0.3, 0.9), (0.7, 1.3)]:
        params = classify(a, b)
        for x in np.linspace(0.0, 1.0, 41):
            assert abs(ml_taylor(params, float(x)) - ml_oracle(params, float(x))) <= 1e-10


def test_talbot_reference_matches_closed_forms():
    for a, b in CLOSED_FORM_PAIRS:
        for x in (0.03, 0.7, 6.0):
            want = ml_closed_form(classify(a, b), x)
            assert ml_talbot(a, b, x) == pytest.approx(want, rel=1e-12, abs=1e-14), (a, b, x)


def test_oracle_matches_independent_talbot_reference():
    # below the asymptotic crossover x**(1/a) = 40, across the whole alpha
    # range, including alpha <= 0.1 and alpha = 1
    rng = np.random.default_rng(20261018)
    alphas = np.concatenate([rng.uniform(0.005, 0.1, 6), rng.uniform(0.1, 1.0, 10), [1.0]])
    cases = [(0.05, 0.5, 1.1), (0.1, 2.0, 1.27)]
    for a in alphas:
        b = float(rng.uniform(a, a + 3.0))
        for t in np.exp(rng.uniform(math.log(1e-2), math.log(40.0), 4)):
            cases.append((float(a), b, float(t**a)))
    for a, b, x in cases:
        got = ml_oracle(classify(a, b), x)
        assert abs(got - ml_talbot(a, b, x)) <= 1e-10, (a, b, x)


def test_oracle_small_alpha_near_crossover():
    params = classify(0.05, 0.5)
    assert ml_oracle(params, 1.1) == pytest.approx(0.25483, abs=1e-5)
    vals = [ml_oracle(params, float(x)) for x in np.linspace(0.5, 5.0, 200)]
    assert all(0.0 < v <= rgamma(0.5) for v in vals)


def test_import_does_not_load_mpmath_or_scipy():
    src = os.path.dirname(os.path.dirname(mlpade.__file__))
    code = "import mlpade, sys; assert not {'mpmath', 'scipy'} & set(sys.modules)"
    r = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr.decode()


def test_closed_form_half_half_free_of_large_x_cancellation():
    # 1/sqrt(pi) - x*erfcx(x) loses relative accuracy like x^2; above x = 26
    # it is summed from erfcx's asymptotic terms instead
    params = classify(0.5, 0.5)
    rng = np.random.default_rng(26)
    xs = np.concatenate([[26.0, 26.000001, 1e4, 1e5, 1e6, 1e8], 10.0 ** rng.uniform(math.log10(26.0), 8.0, 300)])
    with mpmath.workdps(40):
        for x in xs.tolist():
            xm = mpmath.mpf(x)
            want = 1 / mpmath.sqrt(mpmath.pi) - xm * mpmath.exp(xm * xm) * mpmath.erfc(xm)
            got = ml_closed_form(params, x)
            assert abs(got - want) <= 1e-13 * abs(want), x
            assert ml_oracle(params, x) == got


ORACLE_PAIRS = CLOSED_FORM_PAIRS + [(0.3, 0.9), (0.7, 1.3), (0.05, 0.5), (0.35, 0.35), (1.0, 3.0), (0.9, 2.5)]


@pytest.mark.parametrize("a,b", ORACLE_PAIRS)
def test_oracle_array_matches_float_calls(a, b):
    # entries on both sides of the crossover x**(1/a) = 40, in no order
    params = classify(a, b)
    cut = 40.0**a
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.0, cut, cut * (1 - 1e-15)], cut * 10.0 ** rng.uniform(-4.0, 3.0, 60)])
    got = ml_oracle(params, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    want = np.array([ml_oracle(params, x) for x in xs.tolist()])
    far = xs >= cut
    if (a, b) in CLOSED_FORM_PAIRS:
        assert got.tolist() == want.tolist()
    # the contour rows are summed as one matrix product, in another order
    assert np.all(np.abs(got - want)[~far] <= 1e-13)
    assert got[far].tolist() == want[far].tolist()
    assert got[0] == rgamma(b)
    for x in xs[:6].tolist():
        assert ml_oracle(params, np.array([x]))[0] == ml_oracle(params, x)


@pytest.mark.parametrize("bad", [-1e-300, -2.0, math.nan, math.inf])
@pytest.mark.parametrize("a,b", [(0.3, 0.9), (0.5, 1.0)])
def test_oracle_rejects_bad_entries(a, b, bad):
    params = classify(a, b)
    with pytest.raises(DomainError, match="ml_oracle requires finite x >= 0"):
        ml_oracle(params, np.array([0.5, bad]))
    with pytest.raises(DomainError, match="ml_oracle requires finite x >= 0"):
        ml_oracle(params, bad)


@pytest.mark.parametrize("a,b,x,value", [(0.9, 45.0, 29.04, 3.908e-55), (0.5, 50.0, 6.64, 1.7375e-63)])
def test_asymptotic_one_term_truncation_at_large_beta(a, b, x, value):
    # Known defect, kept: for beta large against x**(1/a) just past the
    # crossover the envelope rises at k = 2, so the series is its first term
    # alone, about twice the true value (Talbot references 1.9256e-55 and
    # 8.458e-64).
    assert ml_oracle(classify(a, b), x) == pytest.approx(rgamma(b - a) / x, rel=1e-15, abs=0.0)
    assert ml_oracle(classify(a, b), x) == pytest.approx(value, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("a,x", [(0.95, 11596.578525062128), (0.7, 5e3), (0.35, 1e3)])
def test_asymptotic_diagonal_far_past_crossover_matches_reference(a, x):
    # the first coefficient 1/Gamma(a - a) is 0, so the early stop must be
    # scaled by the first nonzero term: scaling it by the first term's
    # envelope dropped (0.95, 0.95, x = 11597)'s sixth term, 2e-14 relative
    got = ml_oracle(classify(a, a), x)
    assert got == pytest.approx(ml_talbot(a, a, x), rel=2e-15, abs=0.0)
