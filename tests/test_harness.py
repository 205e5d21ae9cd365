"""Tests for the error-scan harness and report serialization."""

import math

import numpy as np
import pytest

from mlpade import (
    DEFAULT_GRID,
    DomainError,
    GridSpec,
    build_approx,
    classify,
    emit_report,
    error_scan,
    eval_approx,
    format_shortest,
    inverse_error_scan,
    ml_oracle,
)
from mlpade.special import rgamma

SMALL_GRID = GridSpec(1e-4, 1e4, 400, include_zero=True)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 10)
    with pytest.raises(DomainError):
        GridSpec(2.0, 1.0, 10)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, 1)
    for x_max in (math.inf, math.nan):
        with pytest.raises(DomainError, match="need finite 0 < x_min < x_max"):
            GridSpec(1.0, x_max, 10)
    for n in (3.5, 4.0, "4", None):
        with pytest.raises(DomainError, match="integer n_points"):
            GridSpec(1.0, 2.0, n)
    assert len(GridSpec(1.0, 2.0, np.int64(3)).points()) == 3


def test_grid_points():
    g = GridSpec(1.0, 100.0, 3, include_zero=True)
    assert g.points() == [0.0, 1.0, 10.0, 100.0]


def test_grid_array_is_built_once_and_read_only():
    g = GridSpec(1e-4, 1e4, 4000, include_zero=True)
    assert g.array is g.array
    assert not g.array.flags.writeable
    assert g.points() == [0.0] + [float(p) for p in np.geomspace(1e-4, 1e4, 4000)]
    assert DEFAULT_GRID.points() == g.points()


def test_format_shortest():
    assert format_shortest(1.0) == "1"
    assert format_shortest(0.5) == "0.5"
    assert format_shortest(0.1) == "0.1"
    v = 0.0034312787141753676
    assert float(format_shortest(v)) == v


def test_scan_report_fields():
    report = error_scan(classify(0.5, 1.5), SMALL_GRID)
    assert report.max_abs_error == max(s[3] for s in report.samples)
    assert any(s[0] == report.argmax_x and s[3] == report.max_abs_error
               for s in report.samples)
    # error is exactly zero at the origin by construction
    assert report.samples[0] == (0.0, rgamma(1.5), rgamma(1.5), 0.0)
    # shared asymptotics: tail error well below the peak
    assert report.samples[-1][3] < report.max_abs_error


def test_scan_determinism():
    a = emit_report(error_scan(classify(0.5, 1.0), SMALL_GRID), "csv")
    b = emit_report(error_scan(classify(0.5, 1.0), SMALL_GRID), "csv")
    assert a == b


def test_csv_format():
    data = emit_report(error_scan(classify(0.5, 1.5), SMALL_GRID), "csv")
    lines = data.decode("ascii").split("\n")
    assert lines[0] == "x,approx,oracle,abs_error"
    assert lines[1] == "0,1.1283791670955126,1.1283791670955126,0"
    assert lines[-1] == ""  # trailing LF
    assert b"\r" not in data
    # every field round-trips to a double
    for line in lines[1:-1]:
        assert len([float(f) for f in line.split(",")]) == 4


def test_summary_format():
    report = error_scan(classify(1.0, 2.0), SMALL_GRID)
    line = emit_report(report, "summary").decode("ascii")
    fields = line.strip().split(",")
    assert fields[0] == "1" and fields[1] == "2"
    assert float(fields[2]) == report.max_abs_error
    assert float(fields[3]) == report.argmax_x
    with pytest.raises(DomainError):
        emit_report(report, "json")


def test_grid_refinement_never_loses_error():
    params = classify(0.5, 1.5)
    coarse = error_scan(params, GridSpec(1e-4, 1e4, 500, include_zero=True))
    fine = error_scan(params, GridSpec(1e-4, 1e4, 1000, include_zero=True))
    assert fine.max_abs_error >= coarse.max_abs_error - 1e-6


def test_inverse_scan_exponential_regime_is_exact():
    # alpha = beta = 1: both the algebraic and bisected inverse are -ln(y)
    grid = GridSpec(1e-3, 1.0, 40)
    report = inverse_error_scan(classify(1.0, 1.0), grid)
    # residual comes from the bisection tolerance only
    assert report.max_abs_error <= 1e-6
    assert report.max_rel_error <= 1e-6


def test_inverse_scan_beta_one():
    grid = GridSpec(1e-2, 1.0, 30)
    report = inverse_error_scan(classify(0.5, 1.0), grid)
    assert report.max_abs_error > 0.0
    ys = [s[0] for s in report.samples]
    i = int(np.argmin(np.abs(np.array(ys) - 0.5)))
    assert report.samples[i][3] < 0.2
    # boundary y = rgamma(beta): both inverses are zero
    assert report.samples[-1][0] == 1.0
    assert report.samples[-1][3] <= 1e-6


def test_inverse_scan_rejects_out_of_domain_grid():
    with pytest.raises(DomainError):
        inverse_error_scan(classify(0.5, 0.5), GridSpec(1e-2, 1.0, 10))


def _scan_by_point(params, grid):
    """error_scan's samples computed one grid point at a time."""
    approx = build_approx(params)
    rows = []
    for x in grid.points():
        a, o = eval_approx(approx, x), ml_oracle(params, x)
        rows.append((x, a, o, abs(a - o)))
    return rows


CROSSOVER_GRID = GridSpec(0.5, 200.0, 120, include_zero=True)


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0)])
def test_scan_equals_per_point_loop_on_closed_forms(a, b):
    params = classify(a, b)
    for grid in (SMALL_GRID, CROSSOVER_GRID):
        report = error_scan(params, grid)
        assert report.samples == _scan_by_point(params, grid)


@pytest.mark.parametrize("a,b", [(0.3, 0.9), (0.7, 1.3), (0.2, 0.7), (0.35, 0.35), (1.0, 3.0), (0.15, 1.2)])
def test_scan_matches_per_point_loop(a, b):
    params = classify(a, b)
    for grid in (SMALL_GRID, CROSSOVER_GRID):
        report = error_scan(params, grid)
        ref = _scan_by_point(params, grid)
        assert [s[:2] for s in report.samples] == [r[:2] for r in ref]
        assert all(type(v) is float for s in report.samples for v in s)
        for (x, _, o, _), (_, _, o_ref, _) in zip(report.samples, ref):
            if x ** (1.0 / a) < 40.0:
                assert abs(o - o_ref) <= 1e-13, x
            else:
                assert abs(o - o_ref) <= 1e-14 * abs(o_ref), x
        errors = [s[3] for s in report.samples]
        first = errors.index(max(errors))
        assert (report.max_abs_error, report.argmax_x) == (errors[first], report.samples[first][0])
