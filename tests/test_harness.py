"""Tests for the error-scan harness and report serialization."""

import math
import sys

import numpy as np
import pytest

import mlpade.harness as harness
from mlpade import (
    DEFAULT_GRID,
    ConstructionError,
    DomainError,
    ErrorReport,
    GridSpec,
    NonConvergenceError,
    build_approx,
    classify,
    emit_report,
    error_scan,
    eval_approx,
    format_shortest,
    inverse_error_scan,
    ml_oracle,
)
from mlpade.special import erfcx, rgamma

SMALL_GRID = GridSpec(1e-4, 1e4, 400, include_zero=True)
# bounds 2 ulps apart: 10 to the interior exponents rounds out of order
UNORDERED_GRID = GridSpec(2.6975570666160433e-283, 2.6975570666160437e-283, 317)


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


def _grid_cases(n_cases=400, seed=20121):
    """Seeded grids: bounds anywhere in 1e-300..1e300, bounds one ulp apart,
    small int bounds, n_points from 2 to 5000 as int and as np.int64."""
    rng = np.random.default_rng(seed)
    cases = [(1e-300, 1e300, 5000), (1.0, math.nextafter(1.0, 2.0), 2), (1, 1000, 4)]
    for i in range(n_cases):
        e = rng.uniform(-300, 299)
        lo, hi = 10.0**e, 10.0 ** rng.uniform(e + 0.01, 300)
        if i % 5 == 1:
            hi = math.nextafter(lo, math.inf)
        elif i % 5 == 2:
            lo, hi = int(rng.integers(1, 1000)), int(rng.integers(1000, 10**6))
        n = 2 if i % 7 == 0 else int(rng.integers(2, 5001))
        cases.append((lo, hi, np.int64(n) if i % 2 else n))
    return cases


def test_grid_array_is_built_once_and_read_only():
    g = GridSpec(1e-4, 1e4, 4000, include_zero=True)
    assert g.array is g.array
    assert DEFAULT_GRID.points() == g.points()
    # the points are geomspace's own arithmetic, bit for bit; a numpy whose
    # geomspace computes differently fails here, before any scan CSV moves
    for lo, hi, n in [(1e-4, 1e4, 4000)] + _grid_cases():
        want = np.geomspace(lo, hi, n)
        for include_zero in (False, True):
            g = GridSpec(lo, hi, n, include_zero=include_zero)
            expect = np.concatenate(([0.0], want)) if include_zero else want
            assert g.array.dtype == np.float64 and g.array.shape == expect.shape
            assert g.array.tobytes() == expect.tobytes(), (lo, hi, n, include_zero)
            assert not np.signbit(g.array).any()
            assert not g.array.flags.writeable
            assert g.points() == g.array.tolist()


def test_grid_points_cannot_be_made_writeable():
    # the points are a view of an immutable bytes copy: a write through them
    # would change every later scan of the grid, DEFAULT_GRID's included
    want = np.concatenate(([0.0], np.geomspace(1e-4, 1e4, 4000))).tobytes()
    for g in (GridSpec(1e-4, 1e4, 4000, include_zero=True), DEFAULT_GRID):
        with pytest.raises(ValueError):
            g.array.setflags(write=True)
        assert not g.array.flags.writeable
        assert np.array(g.points()).tobytes() == want


def _step_cases(step=1.01e-12, n_cases=300, seed=24):
    """Seeded grids whose exponent step is just above the 1e-12 under which
    GridSpec tests its points' order, with bounds from the subnormals to near
    the largest double."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        n = int(rng.integers(2, 5001)) if i % 3 else 3
        lo = 10.0 ** (rng.uniform(-310.0, 308.0) if i % 10 else rng.uniform(-323.0, -308.0))
        # a subnormal bound's next double may lie farther than the step
        cases.append((lo, max(lo * 10.0 ** (step * (n - 1)), math.nextafter(lo, math.inf)), n))
    return cases


def test_grid_records_whether_its_points_are_in_order():
    # the verdict, by the exponent step or by the neighbour test, against
    # every neighbour pair of the points
    unordered = 0
    for lo, hi, n in _grid_cases() + _step_cases():
        for include_zero in (False, True):
            g = GridSpec(lo, hi, n, include_zero=include_zero)
            assert g.ordered is bool(np.all(np.diff(g.array) >= 0.0)), (lo, hi, n)
            unordered += not g.ordered
    assert unordered == 8
    assert not UNORDERED_GRID.ordered


def test_grid_to_the_largest_double_builds_without_a_warning():
    # 10 is raised only to the interior exponents, so no overflow is warned of
    top = sys.float_info.max
    g = GridSpec(1.0, top, 5, include_zero=True)
    with np.errstate(over="ignore"):
        want = np.geomspace(1.0, top, 5)
    assert g.array.tobytes() == np.concatenate(([0.0], want)).tobytes()


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


def test_inverse_csv_names_its_columns():
    report = inverse_error_scan(classify(0.5, 1.5), GridSpec(1e-3, 1.0, 5))
    lines = emit_report(report, "csv").decode("ascii").split("\n")
    assert lines[0] == "y,x_approx,x_true,abs_error"
    assert lines[1].startswith("0.001,999.4")
    fields = emit_report(report, "summary").decode("ascii").strip().split(",")
    assert float(fields[3]) == report.argmax_x
    assert report.argmax_x in [s[0] for s in report.samples]  # a y, not an x


def test_summary_format():
    report = error_scan(classify(1.0, 2.0), SMALL_GRID)
    line = emit_report(report, "summary").decode("ascii")
    fields = line.strip().split(",")
    assert fields[0] == "1" and fields[1] == "2"
    assert float(fields[2]) == report.max_abs_error
    assert float(fields[3]) == report.argmax_x
    with pytest.raises(DomainError):
        emit_report(report, "json")


def _reports():
    return [error_scan(classify(0.3, 0.9), SMALL_GRID),
            inverse_error_scan(classify(0.5, 1.5), GridSpec(1e-3, 1.0, 5))]


def test_report_columns_are_read_only_float64_arrays():
    for report in _reports():
        assert len(report.columns) == 4
        for column in report.columns:
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.shape == (len(report.samples),)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert report.samples == list(zip(*(c.tolist() for c in report.columns)))


def test_report_columns_own_contiguous_memory():
    # a grid without 0 and below the crossover puts the whole oracle column
    # on the contour, whose values are the real part of complex sums; the x
    # column of a forward scan is the grid's own points, a view of its bytes
    for report in _reports() + [error_scan(classify(0.3, 0.9), GridSpec(1e-3, 2.0, 31))]:
        for column in report.columns:
            assert column.flags.c_contiguous and column.dtype == np.float64
            assert column.flags.owndata or column is report.grid.array


def test_report_samples_are_built_on_each_read_and_never_kept():
    for report in _reports():
        before = dict(vars(report))
        rows = report.samples
        assert vars(report) == before  # no attribute added, each one the same object
        assert report.samples == rows and report.samples is not rows


def test_csv_is_the_samples_in_shortest_form():
    forward, inverse = _reports()
    for report, header in [(forward, "x,approx,oracle,abs_error"),
                           (inverse, "y,x_approx,x_true,abs_error")]:
        want = "\n".join([header] + [",".join(map(format_shortest, row))
                                     for row in report.samples]) + "\n"
        assert emit_report(report, "csv") == want.encode("ascii")
        assert emit_report(report, "csv") == harness._csv(header, zip(*report.samples))


def test_reports_compare_by_value():
    params = classify(0.3, 0.9)
    a, b = error_scan(params, SMALL_GRID), error_scan(params, SMALL_GRID)
    assert a == b and a.columns[2] is not b.columns[2]
    assert inverse_error_scan(classify(0.5, 1.5), GridSpec(1e-3, 1.0, 5)) == _reports()[1]
    assert repr(a) == repr(b) and "columns" not in repr(a)
    for j in range(4):
        changed = list(a.columns)
        changed[j] = changed[j].copy()
        changed[j][-1] = math.nextafter(changed[j][-1], math.inf)
        assert a != ErrorReport(a.params, a.grid, a.max_abs_error, a.argmax_x, tuple(changed))
    assert a != error_scan(params, CROSSOVER_GRID)
    assert a != _reports()[1]


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


def test_inverse_scan_refuses_a_zero_y():
    # y = 0 is E's limit at x = inf, outside the inverse's domain; it was
    # dropped, so 4 grid points gave 3 rows
    with pytest.raises(DomainError, match=r"inside the inverse domain \(0, "):
        inverse_error_scan(classify(0.5, 1.5), GridSpec(1e-3, 0.5, 3, include_zero=True))


def test_inverse_scan_past_gamma_overflow_names_the_overflow():
    # 1/Gamma(175) underflows to 0, so the grid test alone read "the inverse
    # domain (0, 0.0]"; the pair is refused first, for its real cause
    with pytest.raises(ConstructionError, match=r"Gamma\(175\.5\) overflows a double"):
        inverse_error_scan(classify(0.5, 175.0), GridSpec(1e-300, 1e-200, 3))


def test_inverse_scan_bisection_stop_is_absolute_in_y():
    # Known defect, kept: the bisection stops once its bracket's values differ
    # by 1e-10 absolute, which at small y leaves its "true" inverse far less
    # accurate than the approximant. At (0.3, 0.9), y = 1e-4/Gamma(0.9), the
    # root by tests/talbot_reference.py and a secant solve is 7175.39704075175:
    # the bisection is 4.20e-4 above it and the algebraic inverse 6.3e-6
    # below, so the reported error is 67 times the approximant's.
    root = 7175.39704075175
    y = 1e-4 * rgamma(0.9)
    report = inverse_error_scan(classify(0.3, 0.9), GridSpec(y, 2.0 * y, 2))
    _, x_alg, x_true, err = report.samples[0]
    assert x_true - root == pytest.approx(4.20e-4, rel=1e-2)
    assert x_alg - root == pytest.approx(-6.3e-6, rel=1e-2)
    assert err > 60 * abs(x_alg - root)


def test_inverse_scan_bisection_gives_up_past_its_budget():
    # E_{0.3,0.9}(-x) decays like 1/x, so y = 1e-20 lies beyond x = 1e15
    with pytest.raises(NonConvergenceError, match="could not bracket"):
        inverse_error_scan(classify(0.3, 0.9), GridSpec(1e-20, 1e-19, 2))


def _scan_by_point(params, grid):
    """error_scan's samples computed one grid point at a time."""
    approx = build_approx(params)
    rows = []
    for x in grid.points():
        a, o = eval_approx(approx, x), ml_oracle(params, x)
        rows.append((x, a, o, abs(a - o)))
    return rows


CROSSOVER_GRID = GridSpec(0.5, 200.0, 120, include_zero=True)


# closed-form pairs, then pairs on the series and the contour
SCAN_PAIRS = [(0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0)] + [
    (0.3, 0.9), (0.7, 1.3), (0.2, 0.7), (0.35, 0.35), (1.0, 3.0), (0.15, 1.2)
]


@pytest.mark.parametrize("a,b", SCAN_PAIRS)
def test_scan_matches_per_point_loop(a, b):
    params = classify(a, b)
    for grid in (SMALL_GRID, CROSSOVER_GRID, UNORDERED_GRID):
        report = error_scan(params, grid)
        assert report.samples == _scan_by_point(params, grid)
        assert all(type(v) is float for s in report.samples for v in s)
        errors = [s[3] for s in report.samples]
        first = errors.index(max(errors))
        assert (report.max_abs_error, report.argmax_x) == (errors[first], report.samples[first][0])


def test_error_scan_calls_the_public_entry_points_once(monkeypatch):
    # the benchmark's per-layer trace counts eval_approx and ml_oracle by
    # their module bindings; a shortcut past either would hide a layer
    calls = {"eval_approx": 0, "ml_oracle": 0}

    def counted(name):
        inner = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    for a, b in [(0.5, 1.5), (0.3, 0.9)]:
        calls.update(eval_approx=0, ml_oracle=0)
        error_scan(classify(a, b), GridSpec(1e-3, 1e3, 31, include_zero=True))
        assert calls == {"eval_approx": 1, "ml_oracle": 1}


def _bits(v):
    return v.dtype, v.shape, v.tobytes()


# each closed form, the diagonal (1/2, 1/2) and (1, 1) among them, and a
# general pair on the contour and the series
GRID_ARGUMENT_PAIRS = [(0.5, 1.0), (0.5, 1.5), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0), (0.6, 2.0)]


@pytest.mark.parametrize("a,b", GRID_ARGUMENT_PAIRS)
def test_a_grid_argument_is_its_points(a, b):
    params = classify(a, b)
    approx = build_approx(params)
    for lo, hi, n in _grid_cases():
        for include_zero in (False, True):
            g = GridSpec(lo, hi, n, include_zero=include_zero)
            xs = g.array.copy()
            assert xs.flags.writeable
            for f, arg in [(ml_oracle, params), (eval_approx, approx)]:
                assert _bits(f(arg, g)) == _bits(f(arg, xs)), (f.__name__, lo, hi, n, include_zero)
            assert g.array.tobytes() == xs.tobytes()


def test_erfcx_takes_a_grid_as_its_points():
    for lo, hi, n in _grid_cases():
        for include_zero in (False, True):
            g = GridSpec(lo, hi, n, include_zero=include_zero)
            assert _bits(erfcx(g)) == _bits(erfcx(g.array.copy())), (lo, hi, n)
