"""Tests for the fractional-ODE rational solutions."""

import math

import numpy as np
import pytest

from mlpade import (
    ConstructionError,
    DomainError,
    RelaxationSpec,
    TwoTermSpec,
    build_approx,
    classify,
    eval_approx,
    relaxation_exact,
    relaxation_pade,
    two_term_exact,
    two_term_pade,
)
from mlpade.special import erfcx, rgamma
from paper_formulas import (
    coeffs_from_closed_form,
    relaxation_rational,
    two_term_coeffs,
    two_term_rational,
)

SQRT_PI = math.sqrt(math.pi)

# E_{1/2,3/4}(-1) frozen from a 60-digit mpmath series summation
ML_HALF_34_AT_1 = 0.2938701599636362


def test_spec_validation():
    with pytest.raises(DomainError):
        RelaxationSpec(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        RelaxationSpec(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        TwoTermSpec(0.75, 0.25, 0.0)
    with pytest.raises(DomainError):
        TwoTermSpec(0.25, 1.0, 0.0)


def test_t_must_be_positive():
    spec = RelaxationSpec(0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        relaxation_exact(spec, 0.0)
    with pytest.raises(DomainError):
        relaxation_pade(spec, -1.0)
    with pytest.raises(DomainError):
        two_term_exact(TwoTermSpec(0.25, 0.75, 0.0), 0.0)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_t_must_be_finite(t):
    # a non-finite t is not a singularity at the origin; the error says so
    relax = RelaxationSpec(0.3, 1.0, 1.0)
    two = TwoTermSpec(0.25, 0.75, 0.0)
    for fn, spec in ((relaxation_exact, relax), (relaxation_pade, relax),
                     (two_term_exact, two), (two_term_pade, two)):
        with pytest.raises(DomainError, match="need finite t") as exc:
            fn(spec, t)
        assert "origin" not in str(exc.value)


def test_relaxation_exact_half():
    # alpha = 1/2, lambda = 1, t = 1: E_{1/2,1/2}(-1) = 1/sqrt(pi) - erfcx(1)
    spec = RelaxationSpec(0.5, 1.0, 1.0)
    want = 1.0 / SQRT_PI - erfcx(1.0)
    assert relaxation_exact(spec, 1.0) == pytest.approx(want, rel=1e-12)


def test_relaxation_zero_initial_condition():
    spec = RelaxationSpec(0.5, 1.0, 0.0)
    assert relaxation_exact(spec, 2.0) == 0.0
    assert relaxation_pade(spec, 2.0) == 0.0


def test_relaxation_pade_half_alpha_closed_form():
    # middle denominator term vanishes at alpha=1/2 via rgamma(0)=0
    spec = RelaxationSpec(0.5, 1.0, 1.0)
    for t in (0.2, 1.0, 5.0):
        want = 1.0 / (SQRT_PI * math.sqrt(t) + 2.0 * SQRT_PI * t**1.5)
        assert relaxation_pade(spec, t) == pytest.approx(want, rel=1e-14)
        # algebraically equal to t^{-1/2} (1/sqrt(pi)) / (1 + 2t)
        alt = t**-0.5 * (1.0 / SQRT_PI) / (1.0 + 2.0 * t)
        assert relaxation_pade(spec, t) == pytest.approx(alt, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.3, 0.45, 0.5])
def test_relaxation_pade_matches_diagonal_approximant(alpha):
    spec = RelaxationSpec(alpha, 1.7, 2.5)
    ap = build_approx(classify(alpha, alpha))
    for t in (0.1, 1.0, 10.0):
        want = spec.c1 * t**-alpha * eval_approx(ap, spec.lam * t**alpha)
        assert relaxation_pade(spec, t) == pytest.approx(want, rel=1e-12)
        assert relaxation_pade(spec, t) == pytest.approx(
            relaxation_rational(spec, t), rel=1e-12
        )


def test_relaxation_pade_refuses_alpha_above_alpha_star():
    # above alpha = 1/2 the diagonal approximant is not monotone (at 0.8 its
    # denominator has a positive root); the rational solution must raise,
    # not return a wrong value
    spec = RelaxationSpec(0.8, 1.0, 1.0)
    with pytest.raises(ConstructionError, match="alpha <= 1/2"):
        relaxation_pade(spec, 1.0)
    assert relaxation_exact(spec, 1.0) == pytest.approx(0.25574, abs=1e-4)
    # the moved input of test_relaxation_pade_matches_diagonal_approximant
    with pytest.raises(ConstructionError, match="alpha <= 1/2"):
        relaxation_pade(RelaxationSpec(0.62, 1.7, 2.5), 1.0)


def test_relaxation_prefactor_switch():
    spec = RelaxationSpec(0.3, 1.0, 1.0)
    for t in (0.4, 3.0):
        paper = relaxation_pade(spec, t, "paper")
        standard = relaxation_pade(spec, t, "standard")
        assert standard == pytest.approx(paper * t ** (2 * 0.3 - 1.0), rel=1e-13)
        pe = relaxation_exact(spec, t, prefactor="paper")
        se = relaxation_exact(spec, t, prefactor="standard")
        assert se == pytest.approx(pe * t ** (2 * 0.3 - 1.0), rel=1e-13)
    with pytest.raises(DomainError):
        relaxation_pade(spec, 1.0, "bogus")


def test_prefactors_agree_at_alpha_half():
    spec = RelaxationSpec(0.5, 2.0, 1.0)
    for t in (0.5, 2.0):
        assert relaxation_exact(spec, t, prefactor="paper") == pytest.approx(
            relaxation_exact(spec, t, prefactor="standard"), rel=1e-15
        )


def test_linearity():
    s1 = RelaxationSpec(0.4, 1.0, 1.0)
    s3 = RelaxationSpec(0.4, 1.0, 3.0)
    assert relaxation_pade(s3, 2.0) == pytest.approx(
        3.0 * relaxation_pade(s1, 2.0), rel=1e-15
    )
    t0 = TwoTermSpec(0.25, 0.75, 0.0)
    t2 = TwoTermSpec(0.25, 0.75, 2.0)
    assert two_term_exact(t2, 1.5) == pytest.approx(
        3.0 * two_term_exact(t0, 1.5), rel=1e-14
    )
    tm1 = TwoTermSpec(0.25, 0.75, -1.0)
    assert two_term_exact(tm1, 1.5) == 0.0
    assert two_term_pade(tm1, 1.5) == 0.0


def test_two_term_exact_worked_value():
    # (alpha, beta) = (1/4, 3/4), t = 1: g(1) = E_{1/2,3/4}(-1)
    spec = TwoTermSpec(0.25, 0.75, 0.0)
    assert two_term_exact(spec, 1.0) == pytest.approx(ML_HALF_34_AT_1, rel=1e-11)


def test_two_term_small_t_behavior():
    spec = TwoTermSpec(0.25, 0.75, 0.0)
    t = 1e-8
    want = t ** (0.75 - 1.0) * rgamma(0.75)
    # leading correction is of order t^{(beta-alpha)} = 1e-4
    assert two_term_exact(spec, t) == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.1, 0.6), (0.3, 0.95), (0.4, 0.8)])
def test_two_term_coeffs_substitution_identity(a, b):
    # (q0', q1') equal the raw coefficients under alpha -> beta - alpha
    q0p, q1p = two_term_coeffs(TwoTermSpec(a, b, 0.0))
    co = coeffs_from_closed_form(classify(b - a, b))
    assert q0p == pytest.approx(co.q0, rel=1e-12)
    assert q1p == pytest.approx(co.q1, rel=1e-12)


@pytest.mark.parametrize("a,b", [(0.25, 0.75), (0.1, 0.6), (0.3, 0.95)])
def test_two_term_pade_matches_approximant(a, b):
    spec = TwoTermSpec(a, b, 0.5)
    ap = build_approx(classify(b - a, b))
    for t in np.geomspace(1e-2, 1e2, 25):
        t = float(t)
        want = (spec.c2 + 1.0) * t ** (b - 1.0) * eval_approx(ap, t ** (b - a))
        assert two_term_pade(spec, t) == pytest.approx(want, rel=1e-12)
        assert two_term_pade(spec, t) == pytest.approx(
            two_term_rational(spec, t), rel=1e-12
        )


def test_pade_tracks_exact_solution():
    # the rational solution error is bounded by the underlying approximant
    # error envelope; spot-check it stays small at moderate times
    spec = TwoTermSpec(0.25, 0.75, 0.0)
    for t in (0.1, 1.0, 10.0, 100.0):
        exact = two_term_exact(spec, t)
        approx = two_term_pade(spec, t)
        assert abs(approx - exact) <= 0.02 * max(1.0, abs(exact))
