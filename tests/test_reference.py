"""Tests for the high-accuracy reference evaluator."""

import gc
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlpade
from mlpade import DEFAULT_GRID, DomainError, NonConvergenceError, classify, ml_oracle
from mlpade.params import _PAIR_MEMO_SIZE
from mlpade.reference import (
    _CLOSED_FORMS, _MAX_TERMS, _NEG_K, _pair_table, _PairKernels, _term_counts, ml_asymptotic,
    ml_closed_form, ml_taylor,
)
from mlpade import special
from mlpade.special import erfcx, piecewise, rgamma
import talbot_reference
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


def _erfcx_pair_references(x: float) -> tuple:
    """E_{1/2,b}(-x) for b = 1, 3/2 and 1/2 by mpmath's erfc, at 40 digits beyond
    those (1 - erfcx(x))/x cancels."""
    with mpmath.workdps(40 + max(0, -math.floor(math.log10(x))) if x else 40):
        xm = mpmath.mpf(x)
        e = mpmath.exp(xm * xm) * mpmath.erfc(xm)
        h32 = (1 - e) / xm if x else 2 / mpmath.sqrt(mpmath.pi)
        return e, h32, 1 / mpmath.sqrt(mpmath.pi) - xm * e


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-315, 1e-310, 1e-12, 1e-9, 1e-6, 1e-4, 0.49, 0.51, 1.0])
def test_closed_forms_free_of_small_x_cancellation(x):
    # (1/2, 3/2) is (1 - erfcx(x))/x and (1, 2) is (1 - e^-x)/x: both must
    # keep full relative accuracy as x -> 0, down to the subnormals, where a
    # quotient by x of a value rounded near x loses digits
    half = _erfcx_pair_references(x)[1]
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
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


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (0.3, 0.9), (0.05, 0.7), (1.0, 1.0)])
@pytest.mark.parametrize("where", ["5e-324", "1e-310", "1e-300", "1", "below"])
def test_asymptotic_refuses_x_below_the_crossover(a, b, where):
    # below the crossover the series is not the oracle's route: its first
    # term 1/(x Gamma(b - a)) overflows at subnormal x and passes 1/Gamma(b)
    # elsewhere, so the view refuses such x
    params = classify(a, b)
    cut = 40.0**a
    x = math.nextafter(cut, 0.0) if where == "below" else float(where)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^ml_asymptotic requires x >= the crossover 40\*\*alpha = "):
            ml_asymptotic(params, x)
        if (a, b) == (1.0, 1.0):  # refused at the crossover too, see below
            return
        got = ml_asymptotic(params, cut)
    assert math.isfinite(got)
    if (a, b) not in CLOSED_FORM_PAIRS:
        assert got == ml_oracle(params, cut)


@pytest.mark.parametrize("x", [40.0, math.nextafter(40.0, math.inf), 100.0, 1e4, 1e300])
def test_asymptotic_refuses_the_pure_exponential(x):
    # at (1, 1) every coefficient 1/Gamma(1 - k) is 0, so the series would
    # give 0 where E_{1,1}(-x) = exp(-x) is positive; the oracle is not affected
    params = classify(1.0, 1.0)
    with pytest.raises(DomainError, match=r"^ml_asymptotic at \(alpha, beta\) = \(1, 1\): "
                       r"the algebraic series is identically zero.*; use ml_oracle$"):
        ml_asymptotic(params, x)
    assert ml_oracle(params, x) == math.exp(-x)
    assert ml_asymptotic(classify(1.0, 2.0), x) == pytest.approx(-math.expm1(-x) / x, rel=1e-15)


@pytest.mark.parametrize("a,b", CLOSED_FORM_PAIRS)
def test_closed_forms_match_the_general_route(a, b):
    # the contour and the series, which the oracle uses for every other pair,
    # held to the oracle's targets: 1e-10 absolute below x**(1/a) = 40, 1e-6
    # relative beyond. Past it (1, 1)'s coefficients 1/Gamma(1 - k) are all
    # 0, so the series gives 0 for exp(-x) < 4.3e-18: (1, 1) is checked below.
    # Both are (bounds, pieces) tables; the general one is built outside the memo
    xs = DEFAULT_GRID.array
    closed = piecewise(xs, *_CLOSED_FORMS[a, b])
    route = piecewise(xs, *_pair_table.__wrapped__(a, b))
    below = xs < 40.0**a
    assert np.all(np.abs(route - closed)[below] <= 1e-10)
    if (a, b) != (1.0, 1.0):
        assert below.sum() < xs.size
        assert np.all(np.abs(route - closed)[~below] <= 1e-6 * np.abs(closed[~below]))


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


def test_talbot_reference_resolves_a_large_beta_value(monkeypatch):
    # E_{a,b}(-x) <= 1/Gamma(b) = 1.07e-156 here, about 1e-156 of the size of
    # the Talbot terms: 30 digits return 8.5e-155, rounding; 30 plus the 156
    # digits of Gamma(100) agree with the Taylor sum at the same precision
    a, b, x = 0.666, 100.0, 1e-3
    with mpmath.workdps(talbot_reference.working_digits(b)):
        # term 40 is 2e-331, 1e-174 of the sum: the terms dropped change no double
        want = float(mpmath.fsum((-mpmath.mpf(x)) ** k * mpmath.rgamma(mpmath.mpf(a) * k + b)
                                 for k in range(40)))
    assert ml_talbot(a, b, x) == pytest.approx(want, rel=1e-14, abs=0.0)
    monkeypatch.setattr(talbot_reference, "working_digits", lambda beta: 30)
    assert ml_talbot(a, b, x) > 10.0 * want


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


def test_erfcx_closed_forms_match_mpmath_densely():
    # the arithmetic erfcx below 26 and the Taylor piece of (1/2, 3/2) below
    # 0.5, on [0, 30] with subnormals and the doubles either side of each switch
    rng = np.random.default_rng(28)
    edges = [0.0, 5e-324, 1e-320, 1e-315, 1e-310, 1e-300, 1e-16, 30.0]
    for s in (0.5, 26.0):
        edges += [math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)]
    xs = np.sort(np.concatenate([
        edges, 10.0 ** rng.uniform(-323.0, 0.0, 150), rng.uniform(0.0, 0.5, 300),
        rng.uniform(0.0, 30.0, 900), rng.uniform(25.0, 27.0, 100),
    ]))
    refs = [_erfcx_pair_references(x) for x in xs.tolist()]
    for i, (b, relative) in enumerate(((1.0, True), (1.5, True), (0.5, False))):
        params = classify(0.5, b)
        got = ml_oracle(params, xs).tolist()
        assert got == [ml_oracle(params, x) for x in xs.tolist()]
        for x, g, r in zip(xs.tolist(), got, refs):
            assert abs(g - r[i]) <= 1e-15 * (abs(r[i]) if relative else 1.0), (b, x, g)


def test_erfcx_closed_forms_map_no_math_function_over_an_array(monkeypatch):
    # below x = 26 erfcx and the (1/2, b) closed forms take only + - * /, so an
    # array call makes no Python-level call per entry
    class NoArrayMath:
        def __getattr__(self, name):
            raise AssertionError(f"math.{name} mapped over an array's entries")

    monkeypatch.setattr(special, "_ARRAY_MATH", NoArrayMath())
    for b in (1.0, 1.5, 0.5):
        ml_oracle(classify(0.5, b), DEFAULT_GRID)
    erfcx(DEFAULT_GRID)
    with pytest.raises(AssertionError, match="math.expm1 mapped"):  # the patch takes hold
        ml_oracle(classify(1.0, 2.0), DEFAULT_GRID)


ORACLE_PAIRS = CLOSED_FORM_PAIRS + [(0.3, 0.9), (0.7, 1.3), (0.05, 0.5), (0.35, 0.35), (1.0, 3.0), (0.9, 2.5)]


@pytest.mark.parametrize("a,b", ORACLE_PAIRS)
def test_oracle_array_matches_float_calls(a, b):
    # entries on both sides of the crossover x**(1/a) = 40, in no order
    params = classify(a, b)
    cut = 40.0**a
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.0, cut, cut * (1 - 1e-15)], cut * 10.0 ** rng.uniform(-4.0, 3.0, 60)])
    if (a, b) in CLOSED_FORM_PAIRS:
        # the closed forms' branch edges, the smallest double, and 1e160 and
        # 1e300, where x*x overflows
        edges = [0.5, math.nextafter(0.5, 0.0), 26.0, math.nextafter(26.0, 0.0), 5e-324, 1e160, 1e300]
        xs = np.concatenate([xs, edges])
    assert ml_oracle(params, np.array([])).shape == (0,)
    got = ml_oracle(params, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    # bit for bit on every route: closed form, x = 0, contour and series
    assert got.tolist() == [ml_oracle(params, x) for x in xs.tolist()]
    assert got[0] == rgamma(b)
    # descending, repeated entries, zeros in the middle, and each range bound
    # of the oracle and the approximant, shuffled
    bounds = [0.5, 26.0, cut, 1e100, math.nextafter(1e100, math.inf)]
    mixed = rng.permutation(np.concatenate([bounds * 2, [0.0, 0.0], xs[::5]]))
    for ys in (np.sort(xs)[::-1], np.repeat(xs[::8], 3), np.concatenate([xs[30:], [0.0, -0.0], xs[:30]]), mixed):
        assert ml_oracle(params, ys).tolist() == [ml_oracle(params, y) for y in ys.tolist()]
    for x in xs[:6].tolist():
        assert ml_oracle(params, np.array([x]))[0] == ml_oracle(params, x)


@pytest.mark.parametrize(
    "a,b,x",
    [(a, b, 3) for a, b in CLOSED_FORM_PAIRS]
    + [(0.3, 0.9, 0), (0.3, 0.9, 2), (0.3, 0.9, 1000)],  # x = 0, contour, series
)
def test_oracle_float_like_scalar_gives_float(a, b, x):
    params = classify(a, b)
    for arg in (np.float64(x), x):
        v = ml_oracle(params, arg)
        assert type(v) is float and v == ml_oracle(params, float(x))


@pytest.mark.parametrize("bad", [-1e-300, -1.0, -2.0, math.nan, math.inf])
@pytest.mark.parametrize("a,b", [(0.3, 0.9), (0.5, 1.0)])
def test_oracle_rejects_bad_entries(a, b, bad):
    # an array with a bad entry alone, first or last gets the float call's
    # message, and so does one with a second bad entry after it
    params = classify(a, b)
    with pytest.raises(DomainError, match="^ml_oracle requires finite x >= 0, got ") as float_call:
        ml_oracle(params, bad)
    for xs in ([bad], [bad, 0.5, 2e3], [0.5, 2e3, bad], [2.0, bad, -5.0], [2.0, bad, math.nan]):
        with pytest.raises(DomainError, match=f"^{re.escape(str(float_call.value))}$"):
            ml_oracle(params, np.array(xs))


@pytest.mark.parametrize("a,b", [(0.3, 0.9), (0.5, 1.0)])
def test_oracle_accepts_negative_zero(a, b):
    params = classify(a, b)
    xs = np.array([-0.0, 0.5, 2e3, -0.0])
    assert ml_oracle(params, -0.0) == rgamma(b)
    assert ml_oracle(params, xs).tolist() == [ml_oracle(params, x) for x in xs.tolist()]


@pytest.mark.parametrize(
    "a,b,xs",
    [(0.3, 0.9, [0.5, 1.0]), (0.3, 0.9, [1.0, 0.5]), (0.3, 0.9, [1e3, 2e3]),
     (0.3, 0.9, [0.0, 0.5, 1e3]), (0.5, 1.0, [0.5, 30.0])],
    ids=["contour", "contour-unordered", "series", "all-routes", "closed-form"],
)
def test_oracle_arrays_own_contiguous_float64_memory(a, b, xs):
    # the contour's values are the real part of complex sums; an array on the
    # contour alone must not come back as a strided view into that buffer
    params = classify(a, b)
    for x in (np.array(xs), np.repeat(xs, 2)[::2]):
        got = ml_oracle(params, x)
        assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.owndata
        assert got.tolist() == [ml_oracle(params, v) for v in xs]


def test_series_array_at_the_full_exponent_row_matches_float_calls():
    # at (0.05, 0.5) the crossover itself needs all 400 terms, so the array
    # call takes the whole exponent row -k, k = 0..400
    params = classify(0.05, 0.5)
    (_, cutoff), (_, _, series) = _pair_table(*params)
    xs = cutoff * np.array([1.0, 1.0 + 1e-12, 1.2, 3.0, 1e3])
    got = ml_oracle(params, xs)
    assert _term_counts(series.__self__.table, np.log(xs))[1] == _MAX_TERMS == _NEG_K.size - 1
    assert _bits(got) == _bits([ml_oracle(params, x) for x in xs.tolist()])


@pytest.mark.parametrize("a,b,x,value", [(0.9, 45.0, 29.04, 3.908e-55), (0.5, 50.0, 6.64, 1.7375e-63)])
def test_asymptotic_one_term_truncation_at_large_beta(a, b, x, value):
    # Known defect, kept: for beta large against x**(1/a) just past the
    # crossover the envelope rises at k = 2, so the series is its first term
    # alone, about twice the true value (Talbot references 1.9256e-55 and
    # 8.458e-64).
    assert ml_oracle(classify(a, b), x) == pytest.approx(rgamma(b - a) / x, rel=1e-15, abs=0.0)
    assert ml_oracle(classify(a, b), x) == pytest.approx(value, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("a,b,x,value", [(0.5, 20.0, 0.5, -3.3527e-14), (0.5, 30.0, 1.0, -5.0844e-21)])
def test_contour_wrong_signed_at_large_beta(a, b, x, value):
    # Known defect, kept: the contour's absolute error, ~1e-11 at beta = 12,
    # does not shrink with the value, which falls like 1/Gamma(beta), so past
    # beta ~ 16 the contour can return a negative value for a positive one
    # (Talbot references 7.388e-18 and 9.556e-32). The absolute target holds.
    got, want = ml_oracle(classify(a, b), x), ml_talbot(a, b, x)
    assert got == pytest.approx(value, rel=1e-4, abs=0.0)
    assert got < 0.0 < want and abs(got - want) <= 1e-10


@pytest.mark.parametrize("a,x", [(0.95, 11596.578525062128), (0.7, 5e3), (0.35, 1e3)])
def test_asymptotic_diagonal_far_past_crossover_matches_reference(a, x):
    # the first coefficient 1/Gamma(a - a) is 0, so the early stop must be
    # scaled by the first nonzero term: scaling it by the first term's
    # envelope dropped (0.95, 0.95, x = 11597)'s sixth term, 2e-14 relative
    got = ml_oracle(classify(a, a), x)
    assert got == pytest.approx(ml_talbot(a, a, x), rel=2e-15, abs=0.0)


def _series_terms(alpha, beta):
    """(c_k, rise_k, fall_k) for k = 1..400: term k's coefficient and the
    running bounds on l = ln(x) after it, by the stop rules of
    `reference._PairKernels.series`."""
    rise, fall, e_prev, log_c1, k1 = -math.inf, math.inf, 0.0, 0.0, 0
    for k in range(1, 401):
        z = beta - alpha * k
        if z >= 0.5:
            e = -math.lgamma(z)
            c = (1.0 / math.gamma(z) if z <= 171.6 else 0.0) * (-1) ** (k + 1)
        else:
            m = round(z)
            e = math.lgamma(1.0 - z) - math.log(math.pi)
            g = math.gamma(1.0 - z) if 1.0 - z <= 171.6 else math.inf
            c = g * math.sin(math.pi * (z - m)) / math.pi * (-1) ** (m + k + 1)
        bound = (e + 745.0) / k
        if k > 1:
            rise = max(rise, e - e_prev - 1e-9)
        if k1:
            bound = min(bound, (e - log_c1 + 42.0) / (k - k1))
        fall = min(fall, bound) if math.isfinite(c) else -math.inf
        if math.isfinite(c) and not k1 and c:
            k1, log_c1 = k, math.log(abs(c))
        e_prev = e
        yield c, rise, fall


def _series_one_pass(alpha, beta, x):
    """The series as one pass over k per call, with the stop rules of
    `reference._PairKernels.series` and no table kept between calls: the
    reference that the memoised tables must reproduce bit for bit."""
    order = np.argsort(x)
    ls = np.log(x[order]).tolist()
    lo, hi = 0, len(ls) - 1
    n_terms, coef, k = [0] * len(ls), [0.0], 0
    for c, rise, fall in _series_terms(alpha, beta):
        if lo > hi:
            break
        k += 1
        while lo <= hi and ls[lo] < rise:
            n_terms[lo], lo = k - 1, lo + 1
        while lo <= hi and ls[hi] > fall:
            n_terms[hi], hi = k - 1, hi - 1
        coef.append(c)
    n_terms[lo:hi + 1] = [k] * (hi + 1 - lo)
    out = np.empty(x.size)
    for i, n in zip(order.tolist(), n_terms):
        out[i] = np.cumsum(np.array(coef[:n + 1]) * x[i] ** -np.arange(n + 1.0))[-1]
    return out


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _assert_counts_follow_the_two_bounds(entry, ls):
    """The entry's table against the bounds of its terms: its coefficients,
    and its counts at each l of ls and on and beside every finite bound,
    against min(#{rise_k <= l}, #{fall_k >= l}) over the table's terms."""
    coef = entry.table[0]
    assert not any(a.flags.writeable for a in entry.table)
    terms = list(itertools.islice(_series_terms(entry.alpha, entry.beta), coef.size - 1))
    assert _bits(coef) == _bits([0.0] + [c for c, _, _ in terms])
    rises, falls = (np.array([t[i] for t in terms]) for i in (1, 2))
    edges = np.concatenate([rises, falls])
    edges = edges[np.isfinite(edges)]
    probes = np.concatenate([ls, edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf)])
    want = np.minimum((rises <= probes[:, None]).sum(axis=1), (falls >= probes[:, None]).sum(axis=1))
    n, n_max = _term_counts(entry.table, probes)
    assert n.tolist() == want.tolist() and n_max == want.max()
    return n[:len(ls)]


def test_term_counts_follow_the_two_bounds_on_seeded_pairs():
    # diagonals, pairs near the diagonal and pairs to beta = 170, each over x
    # from its crossover to 1e8 times it
    rng = np.random.default_rng(23)
    for i in range(40):
        a = rng.uniform(0.02, 1.0)
        b = (a, a + rng.uniform(0.0, 3.0), rng.uniform(a, 170.0))[i % 3]
        entry = _PairKernels(a, b)
        xs = 40.0**a * np.sort(10.0 ** np.append(rng.uniform(0.0, 8.0, 15), 0.0))
        assert _bits(entry.series(xs)) == _bits(_series_one_pass(a, b, xs))
        _assert_counts_follow_the_two_bounds(entry, np.log(xs))


def test_term_counts_of_the_placeholder_table_force_a_build():
    # before its first series call an entry holds no terms: every count is 0,
    # the table's length, so the call builds the table
    entry = _PairKernels(0.3, 0.9)
    xs = 40.0**0.3 * np.array([1.0, 10.0, 1e4])
    n, n_max = _term_counts(entry.table, np.log(xs))
    assert n.tolist() == [0, 0, 0] and n_max == entry.table[0].size - 1 == 0
    assert _bits(entry.series(xs)) == _bits(_series_one_pass(0.3, 0.9, xs))
    assert entry.table is not _PairKernels.table and entry.table[0].size > 1
    _assert_counts_follow_the_two_bounds(entry, np.log(xs))


def test_term_counts_past_a_nonfinite_coefficient():
    # at (1, 1) every coefficient to k = 171 is 0 and the 172nd is inf * 0:
    # the fall bound drops to -inf there and no entry sums that term
    entry = _PairKernels(1.0, 1.0)
    ls = np.log(40.0 * np.array([1.0, 1e4, 1e8]))
    entry.cover(float(ls[0]), float(ls[-1]))
    assert entry.table[0].size - 1 == 172 and not np.isfinite(entry.table[0][-1])
    assert _assert_counts_follow_the_two_bounds(entry, ls).max() < 172


def test_term_counts_at_the_full_exponent_row():
    # (0.05, 0.5) needs all 400 terms at its crossover
    entry = _PairKernels(0.05, 0.5)
    xs = 40.0**0.05 * np.array([1.0, 1.2, 1e3])
    entry.series(xs)
    assert _assert_counts_follow_the_two_bounds(entry, np.log(xs))[0] == _MAX_TERMS


@st.composite
def series_pairs(draw):
    a = draw(st.floats(0.02, 1.0))
    b = draw(st.one_of(st.just(a), st.floats(a, a + 3.0), st.floats(a, 170.0)))
    decades = draw(st.lists(st.floats(0.0, 12.0), min_size=1, max_size=12))
    return a, b, 40.0**a * 10.0 ** np.array(decades)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(series_pairs())
def test_series_values_do_not_depend_on_call_history(case):
    # a pair's table grows as calls need more terms and is rebuilt after
    # eviction; cold, grown by a narrower or a wider call, grown by floats
    # from the largest x down, and rebuilt, it gives the one-pass values
    a, b, xs = case
    params = classify(a, b)
    if (a, b) in CLOSED_FORM_PAIRS:
        return
    want = _bits(_series_one_pass(a, b, xs))
    _pair_table.cache_clear()
    assert _bits(ml_oracle(params, xs)) == want  # cold
    for grow in (np.sort(xs)[[xs.size // 2]], 40.0**a * np.geomspace(1.0, 1e14, 9)):
        _pair_table.cache_clear()
        ml_oracle(params, grow)  # a narrower, then a wider call first
        assert _bits(ml_oracle(params, xs)) == want
    _pair_table.cache_clear()
    floats = {x: ml_oracle(params, x) for x in sorted(xs.tolist(), reverse=True)}
    assert _bits([floats[x] for x in xs.tolist()]) == want  # largest x first
    assert _bits(ml_oracle(params, xs)) == want
    for k in range(_PAIR_MEMO_SIZE):  # evicts the pair
        ml_oracle(classify(0.5, 2.0 + k / 64.0), 1e4)
    assert _bits([ml_oracle(params, x) for x in xs.tolist()]) == want


def test_an_evicted_oracle_entry_is_freed_without_the_cyclic_gc():
    # an entry, (bounds, pieces), refers to its kernels through their bound
    # methods and they never to it, so evicting the pair frees its kernels,
    # their series table and their contour nodes by reference counts alone
    params = classify(0.37, 2.9)
    _pair_table.cache_clear()
    ml_oracle(params, np.array([0.0, 0.5, 1e4]))
    kernels = weakref.ref(_pair_table(*params)[1][1].__self__)
    gc.disable()
    try:
        for k in range(_PAIR_MEMO_SIZE):  # evicts the pair
            ml_oracle(classify(0.5, 2.0 + k / 64.0), 1e4)
        assert kernels() is None
    finally:
        gc.enable()


def _pair_lookups():
    info = _pair_table.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize(
    "x", [0.0, 0.5, 1e4, np.array([1e4, 0.0, 0.5, 2.0, 1e3])],
    ids=["origin", "contour", "series", "array"],
)
def test_one_oracle_call_is_one_pair_lookup(x):
    # the pair's memo entry holds the route and both kernels, so a call looks
    # the pair up once, on a miss and on a hit alike; a closed form never
    params = classify(0.3, 0.9)
    _pair_table.cache_clear()
    for _ in range(2):
        before = _pair_lookups()
        ml_oracle(params, x)
        assert _pair_lookups() == before + 1
    before = _pair_lookups()
    ml_oracle(classify(0.5, 1.0), x)
    assert _pair_lookups() == before


def test_series_table_extended_by_threads_at_once():
    # eight threads grow one pair's table at once, each from its own first
    # point, under a short switch interval; an extension lost or torn between
    # the loop state and the published table would change some value
    params = classify(0.37, 2.9)
    xs = (40.0**0.37 * np.geomspace(1.0, 1e12, 40)).tolist()
    want = _series_one_pass(0.37, 2.9, np.array(xs)).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            _pair_table.cache_clear()
            got, start = {}, threading.Barrier(8)

            def work(order):
                start.wait(timeout=60)
                got[tuple(order)] = [ml_oracle(params, xs[i]) for i in order]

            orders = [list(range(5 * j, len(xs))) + list(range(5 * j)) for j in range(8)]
            threads = [threading.Thread(target=work, args=(order,)) for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for order in orders:
                assert got[tuple(order)] == [want[i] for i in order]
    finally:
        sys.setswitchinterval(interval)
