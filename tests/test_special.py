"""Tests for the gamma-family and error-function primitives."""

import inspect
import math

import mpmath
import numpy as np
import pytest

from make_erfcx_coefficients import TABLES, source
from mlpade import ConstructionError, DomainError, build_approx, classify, reference, special
from mlpade.special import erfcx, gamma, is_nonpositive_integer, libm_map, rgamma

SQRT_PI = math.sqrt(math.pi)

# oracle: mpmath exp(2500)*erfc(50) at 60 digits
ERFCX_50 = 0.011281536265323773


def test_gamma_half_integers():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma(1.5) == pytest.approx(SQRT_PI / 2.0, rel=1e-15)
    assert gamma(1.0) == 1.0


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -170.0])
def test_gamma_pole_raises(x):
    with pytest.raises(DomainError, match="gamma pole"):
        gamma(x)


def test_gamma_pole_test_is_exact():
    # nearby non-integers must not trip the pole detector
    assert math.isfinite(gamma(-1.0 + 1e-13))
    assert math.isfinite(gamma(1e-300))


def test_rgamma_at_poles_is_exact_zero():
    assert rgamma(0.0) == 0.0
    assert rgamma(-1.0) == 0.0
    assert rgamma(-7.0) == 0.0
    assert rgamma(2.0) == 1.0


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(0.0)
    assert is_nonpositive_integer(-3.0)
    assert not is_nonpositive_integer(1.0)
    assert not is_nonpositive_integer(-0.5)
    assert not is_nonpositive_integer(float("nan"))
    assert not is_nonpositive_integer(float("-inf"))


def test_erfcx_values():
    assert erfcx(0.0) == 1.0
    assert erfcx(50.0) == pytest.approx(ERFCX_50, rel=1e-12)
    # no-overflow product identity where both factors are representable
    assert erfcx(1.0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-13)


def test_erfcx_rejects_negative():
    with pytest.raises(DomainError):
        erfcx(-1e-6)
    with pytest.raises(DomainError, match="got -1e-06"):
        erfcx(np.array([0.5, -1e-6, 30.0]))


def test_gamma_rgamma_roundtrip():
    for x in np.linspace(0.05, 160.0, 1200):
        assert gamma(x) * rgamma(x) == pytest.approx(1.0, rel=1e-12)


def test_gamma_recurrence():
    for x in np.linspace(0.1, 100.0, 700):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_rgamma_reflection():
    # -1/Gamma(-a) = Gamma(1+a) sin(pi a)/pi, the identity behind the
    # diagonal-case asymptotic coefficient
    for a in np.linspace(0.01, 0.99, 99):
        lhs = -rgamma(-a)
        rhs = gamma(1.0 + a) * math.sin(math.pi * a) / math.pi
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_erfcx_strictly_decreasing():
    xs = np.linspace(0.0, 700.0, 10_000)
    vals = np.array([erfcx(x) for x in xs])
    assert vals[0] == 1.0
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)


def _max_rel_error(f, ref, xs):
    with mpmath.workdps(40):
        return max(float(abs(f(x) / ref(mpmath.mpf(x)) - 1)) for x in xs)


def test_erfcx_matches_mpmath():
    # both sides of the switch at x = 26 from exp(x^2)*erfc(x) to the series
    rng = np.random.default_rng(7)
    xs = [0.0, 26.0] + [
        float(x)
        for x in np.concatenate([
            10.0 ** rng.uniform(-3.0, 6.0, 400),
            rng.uniform(0.0, 1e6, 100),
            rng.uniform(0.0, 30.0, 300),
            rng.uniform(25.0, 27.0, 200),
        ])
    ]
    ref = lambda x: mpmath.exp(x * x) * mpmath.erfc(x)
    assert _max_rel_error(erfcx, ref, xs) <= 2e-15
    # an array, in no order, descending, with repeated entries, zeros in the
    # middle, and 0.5, 26 and inf shuffled, equals the float calls
    edges = [0.5, 26.0, math.nextafter(26.0, 0.0), math.inf, 1e160]
    mixed = rng.permutation(edges * 2 + [0.0, 0.0] + xs[::50])
    for ys in (xs, sorted(xs, reverse=True), np.repeat(xs[::40], 3), xs[500:] + [0.0] + xs[:500], mixed):
        ys = np.array(ys)
        assert erfcx(ys).tolist() == [erfcx(y) for y in ys.tolist()]


def test_erfcx_coefficients_are_weidemans():
    # each frozen table is the one tests/make_erfcx_coefficients.py derives,
    # written as it prints it, and its truncation error is below 1e-17
    modules = {"special": special, "reference": reference}
    for name, (module, derive) in TABLES.items():
        coefs, tail = derive()
        assert coefs == getattr(modules[module], name), name
        assert source(name, coefs) in inspect.getsource(modules[module]), name
        assert tail < 1e-17, name


def test_gamma_rgamma_match_mpmath():
    rng = np.random.default_rng(8)
    xs = [float(x) for x in rng.uniform(-1.0, 171.5, 1000)]
    assert _max_rel_error(gamma, mpmath.gamma, xs) <= 2e-15
    assert _max_rel_error(rgamma, mpmath.rgamma, xs) <= 2e-15


def test_gamma_overflow_and_underflow():
    assert gamma(172.0) == math.inf
    assert rgamma(172.0) == 0.0
    # Gamma(-180.5) underflows to -0, so its reciprocal overflows to -inf
    assert rgamma(-180.5) == -math.inf


def test_large_beta_construction_error_is_typed():
    # Gamma(172) overflows; construction reports it as ConstructionError
    with pytest.raises(ConstructionError):
        build_approx(classify(0.5, 172.0))


@pytest.mark.parametrize("fn", [math.exp, math.expm1, math.erf, math.erfc])
def test_libm_map_is_the_float_call_at_every_entry(fn):
    # strided, read-only, empty and one-entry arrays alike, bit for bit
    xs = np.random.default_rng(5).uniform(-30.0, 30.0, 401)
    read_only = xs.copy()
    read_only.setflags(write=False)
    for v in (xs, xs[::2], xs[::-3], read_only, read_only[1::2], xs[:0], xs[:1]):
        got = libm_map(fn, v)
        assert got.dtype == np.float64 and got.shape == v.shape
        assert got.tobytes() == np.array([fn(x) for x in v.tolist()], dtype=np.float64).tobytes()
