"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
captured output) and asserts the criterion at its stated tolerance.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mlpade import (
    ConstructionError,
    DEFAULT_GRID,
    DegenerateSystemError,
    Regime,
    build_approx,
    classify,
    error_scan,
    eval_approx,
    inv_pade,
    inv_pade_from_approx,
    ml_closed_form,
    ml_oracle,
    ml_taylor,
    relaxation_pade,
)
from mlpade.fode import RelaxationSpec, TwoTermSpec
from mlpade.special import gamma, rgamma
from paper_formulas import (
    approx_coeffs,
    coeffs_from_closed_form,
    solve_hermite_pade,
    two_term_coeffs,
)

PI = math.pi
SQRT_PI = math.sqrt(math.pi)

FIGURE_CASES = [
    ((0.5, 1.5), 0.0034, 5e-4),
    ((0.5, 1.0), 0.0079, 5e-4),
    ((0.5, 0.5), 0.1349, 5e-3),
    ((1.0, 2.0), 0.0352, 1e-3),
]

WORKED_PAIRS = [(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0)]


def report(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def random_valid_pairs(rng, n, require_build=False):
    pairs = []
    while len(pairs) < n:
        a = float(rng.uniform(0.1, 1.0))
        b = float(rng.uniform(a, 3.0))
        try:
            params = classify(a, b)
            if require_build:
                build_approx(params)
        except (ConstructionError, DegenerateSystemError):
            continue
        pairs.append((a, b))
    return pairs


def test_criterion_1_figure_reproduction():
    start = time.perf_counter()
    ok = True
    for (a, b), want, tol in FIGURE_CASES:
        got = error_scan(classify(a, b), DEFAULT_GRID).max_abs_error
        if abs(got - want) > tol:
            ok = False
    elapsed = time.perf_counter() - start
    report(1, f"figure max errors, {elapsed:.2f}s", ok and elapsed < 5.0)


def test_criterion_2_worked_approximants():
    expected = {
        (0.5, 1.5): (2 / SQRT_PI, (4 - PI) / (PI - 2), SQRT_PI / (PI - 2),
                     (4 - PI) / (PI - 2)),
        (0.5, 1.0): (1.0, (PI - 2) / SQRT_PI, SQRT_PI, PI - 2),
        (0.5, 0.5): (1 / SQRT_PI, 0.0, 0.0, 2.0),
        (1.0, 2.0): (1.0, 0.5, 1.0, 0.5),
    }
    ok = True
    for (a, b), want in expected.items():
        ap = build_approx(classify(a, b))
        for g, w in zip((ap.n0, ap.n1, ap.d1, ap.d2), want):
            if abs(g - w) > 1e-12 * max(1.0, abs(w)):
                ok = False
    report(2, "worked approximant coefficients", ok)


def test_criterion_3_construction_cross_check():
    ok = True
    checked = 0
    for ai in range(1, 10):
        a = round(0.1 * ai, 1)
        for b in (round(a + 0.1, 10), 1.0, 1.5, 2.0, 3.0):
            if b <= a:
                continue
            params = classify(a, b)
            if params.regime not in (Regime.GENERAL_SUB, Regime.BETA_ONE):
                continue
            try:
                num = solve_hermite_pade(params)
                ref = coeffs_from_closed_form(params)
            except DegenerateSystemError:
                continue  # pole-degenerate pair
            ap = build_approx(params)
            for co in (num, ref):
                for g, w in zip((ap.n1, ap.d1, ap.d2), approx_coeffs(params, co)):
                    if abs(g - w) > 1e-10 * max(1.0, abs(w)):
                        ok = False
            checked += 1
    report(3, f"construction against both references on {checked} pairs", ok and checked > 30)


def test_criterion_4_matching_properties():
    x = 1e8
    ok = True
    pairs = [(0.2, 0.9), (0.5, 1.5), (0.5, 1.0), (0.7, 2.5), (1.0, 2.0),
             (0.3, 0.3), (0.5, 0.5)]
    for a, b in pairs:
        params = classify(a, b)
        ap = build_approx(params)
        if eval_approx(ap, 0.0) != rgamma(b):
            ok = False
        if params.regime is Regime.DIAGONAL:
            want = math.sin(PI * a) * gamma(1.0 + a) / PI
            if abs(x * x * eval_approx(ap, x) - want) > 1e-6 * abs(want):
                ok = False
            continue
        if abs((ap.n1 - ap.n0 * ap.d1) + rgamma(b + a)) > 1e-10 * rgamma(b + a):
            ok = False
        lead = rgamma(b - a)
        if abs(x * eval_approx(ap, x) - lead) > 1e-6 * abs(lead):
            ok = False
        if params.regime in (Regime.GENERAL_SUB, Regime.BETA_ONE):
            gba = gamma(b - a)
            got = (gba * x * eval_approx(ap, x) - 1.0) * x
            want = -gba * rgamma(b - 2.0 * a)
            if abs(got - want) > max(1e-7, 1e-4 * abs(want)):
                ok = False
    report(4, "Taylor/asymptotic matching properties", ok)


def test_criterion_5_inverse_round_trip():
    rng = np.random.default_rng(20240817)
    ok = True
    pairs = WORKED_PAIRS + random_valid_pairs(rng, 20, require_build=True)
    for a, b in pairs:
        params = classify(a, b)
        ap = build_approx(params)
        hi = rgamma(b)
        if inv_pade(params, hi) != 0.0:
            ok = False
        for y in np.geomspace(hi * 1e-6, hi, 1000):
            y = min(float(y), hi)
            x = inv_pade_from_approx(ap, y)
            if abs(eval_approx(ap, x) - y) > 1e-9 * y:
                ok = False
                break
    exp = classify(1.0, 1.0)
    for y in np.geomspace(1e-10, 1.0, 50):
        y = min(float(y), 1.0)
        want = -math.log(y) if y < 1.0 else 0.0
        if abs(inv_pade(exp, y) - want) > 1e-14 * max(1.0, abs(want)):
            ok = False
    report(5, "inverse round trip", ok)


def test_criterion_6_oracle_integrity():
    ok = True
    for a, b in WORKED_PAIRS + [(1.0, 1.0)]:
        params = classify(a, b)
        for x in np.linspace(0.0, 2.0, 101):
            diff = ml_taylor(params, float(x)) - ml_closed_form(params, float(x))
            if abs(diff) > 1e-10:
                ok = False
    rng = np.random.default_rng(20240818)
    grid = DEFAULT_GRID.points()
    for a, b in random_valid_pairs(rng, 20):
        left = classify(a, b)
        right = classify(a, a + b)
        for x in grid:
            lhs = ml_oracle(left, x)
            rhs = -x * ml_oracle(right, x) + rgamma(b)
            if abs(lhs - rhs) > 1e-9:
                ok = False
                break
    report(6, "oracle integrity", ok)


def test_criterion_7_fode_consistency():
    ok = True
    for alpha, lam, c1 in [(0.3, 1.0, 1.0), (0.5, 2.0, 1.5), (0.62, 0.7, -2.0)]:
        spec = RelaxationSpec(alpha, lam, c1)
        ap = build_approx(classify(alpha, alpha))
        for t in np.geomspace(1e-2, 1e2, 40):
            t = float(t)
            want = c1 * t**-alpha * eval_approx(ap, lam * t**alpha)
            if abs(relaxation_pade(spec, t) - want) > 1e-12 * max(1e-300, abs(want)):
                ok = False
    for a, b in [(0.25, 0.75), (0.1, 0.6), (0.3, 0.95), (0.45, 0.85)]:
        q0p, q1p = two_term_coeffs(TwoTermSpec(a, b, 0.0))
        co = coeffs_from_closed_form(classify(b - a, b))
        if abs(q0p - co.q0) > 1e-12 * abs(co.q0):
            ok = False
        if abs(q1p - co.q1) > 1e-12 * abs(co.q1):
            ok = False
    report(7, "fractional-ODE consistency", ok)


def test_criterion_8_cli_determinism(tmp_path):
    commands = [
        ["eval", "--alpha", "0.5", "--beta", "1.5", "--x", "3.7"],
        ["eval", "--alpha", "0.3", "--beta", "0.9", "--x", "12", "--exact"],
        ["inverse", "--alpha", "0.5", "--beta", "1", "--y", "0.25"],
        ["coeffs", "--table1"],
        ["scan", "--alpha", "0.5", "--beta", "1", "--points", "200",
         "--csv", "CSV"],
        ["ode", "--two-term", "--alpha", "0.25", "--beta", "0.75",
         "--t-grid", "0.1:10:30", "--csv", "CSV"],
        ["selftest"],
    ]
    ok = True
    for cmd in commands:
        outs, csvs = [], []
        for i in (0, 1):
            csv = tmp_path / f"{cmd[0]}_{i}.csv"
            argv = [str(csv) if tok == "CSV" else tok for tok in cmd]
            r = subprocess.run(
                [sys.executable, "-m", "mlpade"] + argv,
                capture_output=True, timeout=300,
            )
            if r.returncode != 0:
                ok = False
            outs.append(r.stdout)
            csvs.append(csv.read_bytes() if csv.exists() else b"")
        if outs[0] != outs[1] or csvs[0] != csvs[1]:
            ok = False
    report(8, "CLI determinism", ok)
