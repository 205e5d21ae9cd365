"""The release invariants, as one table of rows.

`mlpade selftest` runs every row and prints one PASS/FAIL line each, so a
deployed install can be checked without test dependencies; the acceptance
suite (tests/test_acceptance.py) asserts the same rows. A row's check returns
True when the invariant holds.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from . import fode, harness, inverse, pade, reference, special
from .errors import ConstructionError
from .params import Regime, classify

__all__ = ["ROWS", "WORKED", "run_selftest"]

_PI = math.pi
_SQRT_PI = math.sqrt(math.pi)

# The worked pairs: (n0, n1, d1, d2) in closed form, then the maximum absolute
# error over DEFAULT_GRID and its tolerance.
WORKED = {
    (0.5, 1.5): ((2 / _SQRT_PI, (4 - _PI) / (_PI - 2), _SQRT_PI / (_PI - 2),
                  (4 - _PI) / (_PI - 2)), 0.0034, 5e-4),
    (0.5, 1.0): ((1.0, (_PI - 2) / _SQRT_PI, _SQRT_PI, _PI - 2), 0.0079, 5e-4),
    (0.5, 0.5): ((1 / _SQRT_PI, 0.0, 0.0, 2.0), 0.1349, 5e-3),
    (1.0, 2.0): ((1.0, 0.5, 1.0, 0.5), 0.0352, 1e-3),
}


class Row(NamedTuple):
    label: str  # the release criterion of the row, or "special"
    name: str
    check: Callable[[], bool]


def _random_pairs(seed: int) -> list[tuple[float, float]]:
    """20 seeded pairs with a in (0.1, 1) and b in (a, 3)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(20):
        a = float(rng.uniform(0.1, 1.0))
        pairs.append((a, float(rng.uniform(a, 3.0))))
    return pairs


def _coeffs(pair):
    ap = pade.build_approx(classify(*pair))
    return ap, (ap.n0, ap.n1, ap.d1, ap.d2)


def _figure_errors() -> bool:
    return all(
        abs(harness.error_scan(classify(*pair)).max_abs_error - want) <= tol
        for pair, (_, want, tol) in WORKED.items()
    )


def _worked_coefficients() -> bool:
    return all(
        abs(g - w) <= 1e-12 * abs(w)
        for pair, (want, _, _) in WORKED.items()
        for g, w in zip(_coeffs(pair)[1], want)
    )


def _matching() -> bool:
    """A(0) exactly; A'(0) and the 1/x and 1/x^2 terms at infinity, from the
    coefficients and through eval_approx at x = 1e8; on the diagonal the 1/x^2
    term, the first at infinity."""
    rg, x = special.rgamma, 1e8
    pairs = [(a, b) for a in (0.2, 0.4, 0.6, 0.8) for b in (a + 0.1, 1.0, 2.0)]
    pairs += [(0.2, 0.9), (0.5, 1.5), (0.5, 1.0), (0.7, 2.5), (1.0, 2.0), (0.3, 0.3), (0.5, 0.5)]
    for a, b in pairs:
        regime = classify(a, b).regime
        ap, (n0, n1, d1, d2) = _coeffs((a, b))
        if pade.eval_approx(ap, 0.0) != rg(b):
            return False
        if regime is Regime.DIAGONAL:
            want = math.sin(_PI * a) * special.gamma(1.0 + a) / _PI
            if not abs(x * x * pade.eval_approx(ap, x) - want) <= 1e-6 * want:
                return False
            continue
        for g, w in (
            (n1 - n0 * d1, -rg(b + a)),
            (n1 / d2, rg(b - a)),
            ((n0 - n1 * d1 / d2) / d2, -rg(b - 2.0 * a)),
        ):
            if not abs(g - w) <= 1e-10 * abs(w):
                return False
        if not abs(x * pade.eval_approx(ap, x) - rg(b - a)) <= 1e-6 * rg(b - a):
            return False
        if regime in (Regime.GENERAL_SUB, Regime.BETA_ONE):
            gba = special.gamma(b - a)
            got = (gba * x * pade.eval_approx(ap, x) - 1.0) * x
            want = -gba * rg(b - 2.0 * a)
            if not abs(got - want) <= max(1e-7, 1e-4 * abs(want)):
                return False
    return True


def _inverse_round_trip() -> bool:
    for a, b in list(WORKED) + [(0.3, 0.9)] + _random_pairs(20240817):
        params = classify(a, b)
        ap, hi = pade.build_approx(params), special.rgamma(b)
        if inverse.inv_pade(params, hi) != 0.0:
            return False
        for y in np.minimum(np.geomspace(hi * 1e-6, hi, 1000), hi).tolist():
            x = inverse.inv_pade_from_approx(ap, y)
            if not abs(pade.eval_approx(ap, x) - y) <= 1e-9 * y:
                return False
    exp = classify(1.0, 1.0)
    for y in np.minimum(np.geomspace(1e-10, 1.0, 50), 1.0).tolist():
        want = -math.log(y) if y < 1.0 else 0.0
        if not abs(inverse.inv_pade(exp, y) - want) <= 1e-14 * max(1.0, want):
            return False
    return True


def _oracle_integrity() -> bool:
    """Each closed form against its pair's general route on [0, 2], and the
    recurrence E_{a,b}(-x) = -x E_{a,a+b}(-x) + 1/Gamma(b) over DEFAULT_GRID."""
    xs = np.linspace(0.0, 2.0, 101)
    for pair in list(WORKED) + [(1.0, 1.0)]:
        params = classify(*pair)
        general = special.piecewise(xs, *reference._pair_table(*params))
        if not np.all(np.abs(reference.ml_oracle(params, xs) - general) <= 1e-10):
            return False
    grid = harness.DEFAULT_GRID.array
    for a, b in [(0.4, 0.9), (0.7, 1.2), (0.55, 0.55)] + _random_pairs(20240818):
        lhs = reference.ml_oracle(classify(a, b), grid)
        rhs = -grid * reference.ml_oracle(classify(a, a + b), grid) + special.rgamma(b)
        if not np.all(np.abs(lhs - rhs) <= 1e-9):
            return False
    return True


def _relaxation() -> bool:
    """relaxation_pade is c1 * t^-alpha * A(lambda * t^alpha) on the diagonal
    approximant, and refuses alpha above 1/2."""
    ts = np.geomspace(1e-2, 1e2, 40).tolist()
    for alpha, lam, c1 in [(0.3, 1.0, 1.0), (0.5, 2.0, 1.5), (0.45, 0.7, -2.0), (0.45, 2.0, 1.5)]:
        spec = fode.RelaxationSpec(alpha, lam, c1)
        ap = pade.build_approx(classify(alpha, alpha))
        for t in ts:
            want = c1 * t**-alpha * pade.eval_approx(ap, lam * t**alpha)
            if not abs(fode.relaxation_pade(spec, t) - want) <= 1e-12 * abs(want):
                return False
    try:
        fode.relaxation_pade(fode.RelaxationSpec(0.62, 0.7, -2.0), 1.0)
    except ConstructionError as exc:
        return "alpha <= 1/2" in str(exc)
    return False


def _gamma_rgamma() -> bool:
    xs = np.linspace(0.1, 50.0, 500).tolist()
    return all(abs(special.gamma(x) * special.rgamma(x) - 1.0) < 1e-12 for x in xs)


def _erfcx_decreasing() -> bool:
    vals = special.erfcx(np.linspace(0.0, 700.0, 10_000)).tolist()
    return all(0.0 < b < a <= 1.0 for a, b in zip(vals, vals[1:]))


ROWS = (
    Row("criterion 1", "figure max errors", _figure_errors),
    Row("criterion 2", "worked coefficients", _worked_coefficients),
    Row("criterion 4", "taylor and asymptotic matching", _matching),
    Row("criterion 5", "inverse round trip", _inverse_round_trip),
    Row("criterion 6", "oracle integrity", _oracle_integrity),
    Row("criterion 7", "relaxation rational form", _relaxation),
    Row("special", "gamma at one half", lambda: abs(special.gamma(0.5) - _SQRT_PI) < 1e-15),
    Row("special", "gamma times rgamma", _gamma_rgamma),
    Row("special", "erfcx decreasing", _erfcx_decreasing),
)


def run_selftest() -> int:
    """Run every row, printing one PASS/FAIL line each; returns the number of
    failures."""
    failures = 0
    for row in ROWS:
        try:
            ok, detail = row.check(), ""
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f" ({type(exc).__name__}: {exc})"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {row.name}{detail}")
    return failures
