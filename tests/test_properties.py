"""Property tests over the whole region {0 < alpha <= 1, beta >= alpha}.

E_{alpha,beta}(-x) is completely monotone there, so every pair either refuses
construction with a typed error or gives an approximant that starts at n0,
stays in (0, n0], never increases, and inverts to within 1e-9 relative. And
every public function of a pair returns finite floats or raises a typed error.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlpade import (
    GridSpec,
    MLPadeError,
    Regime,
    RelaxationSpec,
    TwoTermSpec,
    build_approx,
    classify,
    error_scan,
    eval_approx,
    inv_pade,
    inv_pade_from_approx,
    ml_oracle,
    relaxation_exact,
    relaxation_pade,
    two_term_exact,
    two_term_pade,
)

XS = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 400)))
Y_FRACTIONS = np.geomspace(1e-6, 1.0, 40)


@st.composite
def region_pairs(draw):
    a = draw(st.floats(1e-6, 1.0))
    # the diagonal, b near a, and b up to past Gamma(b + a)'s overflow
    b = draw(st.one_of(st.just(a), st.floats(a, a + 3.0), st.floats(a, 172.0)))
    return a, b


# a failure makes hypothesis import its patch writer, whose dependency raises
# this DeprecationWarning; ignored so that the failure itself is reported
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(region_pairs())
@example((0.6, 0.6))
@example((0.5, 0.5))
def test_approximant_is_positive_monotone_and_invertible(pair):
    a, b = pair
    params = classify(a, b)
    try:
        ap = build_approx(params)
    except MLPadeError as exc:
        # only the diagonal past alpha = 1/2 breaks the invariant; any other
        # refusal is Gamma(b + a)'s overflow or a degenerate system at tiny a
        if "nonincreasing" in str(exc):
            assert params.regime is Regime.DIAGONAL and a > 0.5
        else:
            assert params.regime is not Regime.DIAGONAL
        return
    assert eval_approx(ap, 0.0) == ap.n0
    vals = eval_approx(ap, XS)
    positive = vals > 0.0
    if ap.regime is Regime.PURE_EXPONENTIAL:
        positive |= XS > 745.0  # where exp(-x) underflows
    assert positive.all()
    assert (vals <= ap.n0).all()
    assert (np.diff(vals) <= 0.0).all()
    for y in (ap.n0 * Y_FRACTIONS).tolist():
        assert abs(eval_approx(ap, inv_pade_from_approx(ap, y)) - y) <= 1e-9 * y
    assert params.regime is not Regime.DIAGONAL or a <= 0.5


SCAN_GRID = GridSpec(1e-3, 1e3, 30)


@st.composite
def region_points(draw):
    # a log-uniform down to 1e-6, a tenth of the draws a = 1; b = a or
    # a + 10^U(-12, 3); x and t anywhere in [0, the largest double]
    a = 1.0 if draw(st.integers(0, 9)) == 0 else 10.0 ** draw(st.floats(-6.0, 0.0))
    b = a if draw(st.booleans()) else a + 10.0 ** draw(st.floats(-12.0, 3.0))
    x = draw(st.floats(0.0, sys.float_info.max))
    return a, b, x, draw(st.floats(0.0, 1.0))


def _finite_or_typed(f, *args):
    """f(*args), which must be finite floats or raise an MLPadeError (a numpy
    warning fails the test, as pyproject turns warnings into errors)."""
    try:
        v = f(*args)
    except MLPadeError:
        return
    if f is error_scan:
        v = np.concatenate(v.columns + ([v.max_abs_error],))
    if isinstance(v, np.ndarray):
        assert v.dtype == np.float64 and np.isfinite(v).all(), (f.__name__, args)
    else:
        assert type(v) is float and np.isfinite(v), (f.__name__, args, v)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(region_points())
def test_every_public_function_returns_finite_floats_or_a_typed_error(case):
    a, b, x, u = case
    params = classify(a, b)
    _finite_or_typed(ml_oracle, params, x)
    _finite_or_typed(ml_oracle, params, np.array([0.0, x * u, x, 1.0, 1e3 * u]))
    _finite_or_typed(inv_pade, params, u * ml_oracle(params, 0.0))
    _finite_or_typed(error_scan, params, SCAN_GRID)
    for make, args, solutions in [
        (RelaxationSpec, (a, 1.0 + u, 1.0), (relaxation_pade, relaxation_exact)),
        (TwoTermSpec, (b - a, b, u), (two_term_pade, two_term_exact)),
    ]:
        try:
            spec = make(*args)
        except MLPadeError:  # alpha = 1, or beta >= 1 for the two-term equation
            continue
        for solution in solutions:
            _finite_or_typed(solution, spec, x)
