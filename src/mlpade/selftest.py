"""Fast invariant suite behind the `mlpade selftest` subcommand.

Each check returns (name, ok, detail); the CLI prints one line per check
and exits nonzero if any fails. This intentionally duplicates a slice of
the pytest suite so a deployed install can be sanity-checked without
test dependencies.
"""

import math

import numpy as np

from . import fode, harness, inverse, pade, reference, special
from .params import classify

__all__ = ["run_selftest"]

_SQRT_PI = math.sqrt(math.pi)


def _checks():
    yield "gamma(1/2) = sqrt(pi)", lambda: abs(
        special.gamma(0.5) - _SQRT_PI
    ) < 1e-15

    def gamma_rgamma_roundtrip():
        xs = np.linspace(0.1, 50.0, 500)
        return all(
            abs(special.gamma(x) * special.rgamma(x) - 1.0) < 1e-12 for x in xs
        )

    yield "gamma * rgamma = 1", gamma_rgamma_roundtrip

    def erfcx_decreasing():
        xs = np.linspace(0.0, 700.0, 10_000)
        vals = [special.erfcx(x) for x in xs]
        return all(0.0 < b < a <= 1.0 for a, b in zip(vals, vals[1:]))

    yield "erfcx strictly decreasing in (0,1]", erfcx_decreasing

    def worked_coeffs():
        pi = math.pi
        ap = pade.build_approx(classify(0.5, 1.5))
        want = (2 / _SQRT_PI, (4 - pi) / (pi - 2), _SQRT_PI / (pi - 2), (4 - pi) / (pi - 2))
        got = (ap.n0, ap.n1, ap.d1, ap.d2)
        return all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want))

    yield "worked approximant (1/2, 3/2)", worked_coeffs

    def matching_equations():
        rg = special.rgamma
        for alpha in (0.2, 0.4, 0.6, 0.8):
            for beta in (alpha + 0.1, 1.0, 2.0):
                ap = pade.build_approx(classify(alpha, beta))
                n0, n1, d1, d2 = ap.n0, ap.n1, ap.d1, ap.d2
                # A(0), A'(0), and the 1/x and 1/x^2 terms at infinity
                for g, w in (
                    (n0, rg(beta)),
                    (n1 - n0 * d1, -rg(beta + alpha)),
                    (n1 / d2, rg(beta - alpha)),
                    ((n0 - n1 * d1 / d2) / d2, -rg(beta - 2.0 * alpha)),
                ):
                    if abs(g - w) > 1e-10 * max(1.0, abs(w)):
                        return False
        return True

    yield "coefficients satisfy the four matching equations", matching_equations

    def figure_errors():
        grid = harness.GridSpec(1e-4, 1e4, 800, include_zero=True)
        for (a, b), want, tol in (
            ((0.5, 1.5), 0.0034, 5e-4),
            ((1.0, 2.0), 0.0352, 1e-3),
        ):
            rep = harness.error_scan(classify(a, b), grid)
            if abs(rep.max_abs_error - want) > tol:
                return False
        return True

    yield "max-error scans match the reported values", figure_errors

    def round_trip():
        for a, b in ((0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0), (0.3, 0.9)):
            p = classify(a, b)
            ap = pade.build_approx(p)
            hi = special.rgamma(b)
            for y in np.geomspace(hi * 1e-6, hi, 50):
                x = inverse.inv_pade_from_approx(ap, min(y, hi))
                if abs(pade.eval_approx(ap, x) - y) > 1e-9 * y:
                    return False
            if inverse.inv_pade(p, hi) != 0.0:
                return False
        return True

    yield "inverse round trip", round_trip

    def recurrence():
        for a, b in ((0.4, 0.9), (0.7, 1.2), (0.55, 0.55)):
            pl = classify(a, b)
            pr = classify(a, a + b)
            for x in np.geomspace(1e-3, 1e3, 60):
                lhs = reference.ml_oracle(pl, float(x))
                rhs = -x * reference.ml_oracle(pr, float(x)) + special.rgamma(b)
                if abs(lhs - rhs) > 1e-9:
                    return False
        return True

    yield "oracle recurrence identity", recurrence

    def fode_consistency():
        spec = fode.RelaxationSpec(0.6, 2.0, 1.5)
        ap = pade.build_approx(classify(0.6, 0.6))
        for t in (0.1, 1.0, 10.0):
            direct = fode.relaxation_pade(spec, t)
            via = spec.c1 * t**-0.6 * pade.eval_approx(ap, spec.lam * t**0.6)
            if abs(direct - via) > 1e-12 * abs(via):
                return False
        return True

    yield "relaxation rational form consistency", fode_consistency


def run_selftest(write=print) -> int:
    """Run all checks; returns the number of failures."""
    failures = 0
    for name, fn in _checks():
        try:
            ok = fn()
            detail = ""
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            detail = f" ({type(exc).__name__}: {exc})"
        if not ok:
            failures += 1
        write(f"{'PASS' if ok else 'FAIL'}  {name}{detail}")
    return failures
