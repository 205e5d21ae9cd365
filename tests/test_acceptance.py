"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
captured output) and asserts the criterion at its stated tolerance. The
criteria that need only the package are the rows of `mlpade.selftest.ROWS`,
which `mlpade selftest` runs too; the tests below them need the paper's
formulas or subprocesses.
"""

import subprocess
import sys
import time

import pytest

from mlpade import ConstructionError, Regime, build_approx, classify, reference
from mlpade.fode import TwoTermSpec
from mlpade.selftest import ROWS
from mlpade.special import piecewise
from paper_formulas import (
    approx_coeffs,
    coeffs_from_closed_form,
    solve_hermite_pade,
    two_term_coeffs,
)


def report(label, name, ok):
    print(f"\n{label} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label} ({name}) failed"


@pytest.mark.parametrize("row", ROWS, ids=[row.name.replace(" ", "_") for row in ROWS])
def test_release_row(row):
    start = time.perf_counter()
    ok = row.check()
    elapsed = time.perf_counter() - start
    report(row.label, f"{row.name}, {elapsed:.2f}s", ok and elapsed < 5.0)


def test_oracle_integrity_row_catches_a_closed_form_off_by_1e_8(monkeypatch):
    bounds, pieces = reference._CLOSED_FORMS[(0.5, 1.5)]
    monkeypatch.setitem(reference._CLOSED_FORMS, (0.5, 1.5),
                        ((), (lambda x: piecewise(x, bounds, pieces) + 1e-8,)))
    row = next(row for row in ROWS if row.name == "oracle integrity")
    assert row.check() is False


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
            except ConstructionError:
                continue  # pole-degenerate pair
            ap = build_approx(params)
            for co in (num, ref):
                for g, w in zip((ap.n1, ap.d1, ap.d2), approx_coeffs(params, co)):
                    if abs(g - w) > 1e-10 * max(1.0, abs(w)):
                        ok = False
            checked += 1
    report("criterion 3", f"construction against both references on {checked} pairs", ok and checked > 30)


def test_criterion_7_fode_consistency():
    # the relaxation part is the row "relaxation rational form"
    ok = True
    for a, b in [(0.25, 0.75), (0.1, 0.6), (0.3, 0.95), (0.45, 0.85)]:
        q0p, q1p = two_term_coeffs(TwoTermSpec(a, b, 0.0))
        co = coeffs_from_closed_form(classify(b - a, b))
        if abs(q0p - co.q0) > 1e-12 * abs(co.q0):
            ok = False
        if abs(q1p - co.q1) > 1e-12 * abs(co.q1):
            ok = False
    report("criterion 7", "two-term coefficients against the paper", ok)


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
    report("criterion 8", "CLI determinism", ok)
