"""End-to-end tests of the command-line interface."""

import subprocess
import sys

import pytest

from mlpade.selftest import ROWS

CMD = [sys.executable, "-m", "mlpade"]


def run(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )


def test_eval_at_origin():
    r = run("eval", "--alpha", "0.5", "--beta", "1.5", "--x", "0")
    assert r.returncode == 0
    assert r.stdout == "1.1283791670955126\n"


def test_eval_exact_close_to_pade():
    pade = run("eval", "--alpha", "0.5", "--beta", "1.5", "--x", "1")
    exact = run("eval", "--alpha", "0.5", "--beta", "1.5", "--x", "1", "--exact")
    assert pade.returncode == exact.returncode == 0
    # the two values differ by at most the reported max scan error
    assert abs(float(pade.stdout) - float(exact.stdout)) < 0.0039


def test_coeffs_worked_pair():
    r = run("coeffs", "--alpha", "1", "--beta", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "n0=1 n1=0.5 d1=1 d2=0.5"


def test_coeffs_table():
    r = run("coeffs", "--table1")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 5  # header plus one row per worked regime pair
    assert lines[1].startswith("general")
    assert lines[-1].startswith("alpha_one")


def test_inverse_value():
    r = run("inverse", "--alpha", "1", "--beta", "2", "--y", "0.6")
    assert r.returncode == 0
    assert float(r.stdout) == pytest.approx(1.0, abs=1e-12)


def test_parameter_domain_exit_code():
    r = run("eval", "--alpha", "1", "--beta", "0.5", "--x", "1")
    assert r.returncode == 3
    assert r.stdout == ""
    assert "mlpade" in r.stderr


def test_usage_exit_code():
    r = run("eval", "--alpha", "0.5")
    assert r.returncode == 2
    r = run("frobnicate")
    assert r.returncode == 2


def test_numerical_failure_exit_code():
    # diagonal construction fails for alpha around 0.75
    r = run("eval", "--alpha", "0.75", "--beta", "0.75", "--x", "1")
    assert r.returncode == 4
    assert r.stdout == ""


def test_degenerate_construction_exit_code():
    r = run("coeffs", "--alpha", "1e-9", "--beta", "2")
    assert r.returncode == 4
    assert r.stdout == ""
    assert r.stderr == "mlpade: coefficient denominator degenerate for alpha=1e-09, beta=2.0\n"


def test_ode_relaxation_above_alpha_star_fails():
    # the diagonal approximant is refused above alpha = 1/2
    for alpha in ("0.8", "0.6"):
        r = run("ode", "--relaxation", "--alpha", alpha)
        assert r.returncode == 4
        assert r.stdout == ""
        assert "alpha <= 1/2" in r.stderr


def test_inverse_domain_exit_code():
    r = run("inverse", "--alpha", "0.5", "--beta", "1", "--y", "2")
    assert r.returncode == 3


def test_scan_summary_and_csv(tmp_path):
    csv = tmp_path / "scan.csv"
    r = run(
        "scan", "--alpha", "0.5", "--beta", "1.5",
        "--grid-min", "1e-4", "--grid-max", "1e4",
        "--points", "300", "--csv", str(csv),
    )
    assert r.returncode == 0
    assert r.stdout.startswith("0.5,1.5,")
    data = csv.read_bytes()
    assert data.startswith(b"x,approx,oracle,abs_error\n")
    assert data.split(b"\n")[1] == b"0,1.1283791670955126,1.1283791670955126,0"


def test_ode_relaxation_runs(tmp_path):
    csv = tmp_path / "ode.csv"
    r = run(
        "ode", "--relaxation", "--alpha", "0.5", "--lambda", "1",
        "--c1", "1", "--t-grid", "0.1:10:20", "--csv", str(csv),
    )
    assert r.returncode == 0
    assert csv.read_bytes().startswith(b"t,pade,exact,abs_error\n")


@pytest.mark.parametrize("args", [
    ("scan", "--alpha", "0.5", "--beta", "1", "--points", "20"),
    ("ode", "--relaxation", "--alpha", "0.5", "--t-grid", "0.1:10:5"),
], ids=["scan", "ode"])
def test_unwritable_csv_path_is_a_usage_error(tmp_path, args):
    path = tmp_path / "missing" / "out.csv"
    r = run(*args, "--csv", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"mlpade: cannot write CSV to {path}: No such file or directory\n"


def test_ode_two_term_requires_beta():
    r = run("ode", "--two-term", "--alpha", "0.25", "--t-grid", "0.1:10:5")
    assert r.returncode == 3
    r = run(
        "ode", "--two-term", "--alpha", "0.25", "--beta", "0.75",
        "--t-grid", "0.1:10:5",
    )
    assert r.returncode == 0


RELAXATION = ("ode", "--relaxation", "--alpha", "0.4", "--t-grid", "0.1:10:5")
TWO_TERM = ("ode", "--two-term", "--alpha", "0.25", "--beta", "0.75", "--t-grid", "0.1:10:5")
TABLE1 = ("coeffs", "--table1")


@pytest.mark.parametrize("command, stray, message", [
    *[(RELAXATION, (flag, v), f"{flag} applies to the two-term equation only")
      for flag in ("--beta", "--c2") for v in ("0.9", "nan")],
    *[(TWO_TERM, (flag, v), f"{flag} applies to the relaxation equation only")
      for flag in ("--lambda", "--c1") for v in ("7", "nan")],
    (TWO_TERM, ("--prefactor", "paper"), "--prefactor applies to the relaxation equation only"),
    (TWO_TERM, ("--prefactor", "standard"), "--prefactor applies to the relaxation equation only"),
    (TWO_TERM, ("--lambda", "7", "--c1", "9"), "--lambda applies to the relaxation equation only"),
    (TABLE1, ("--alpha", "0.3", "--beta", "0.9"), "--alpha does not apply to --table1"),
    (TABLE1, ("--beta", "nan"), "--beta does not apply to --table1"),
])
def test_option_the_command_does_not_take_is_refused(command, stray, message):
    # refused, not dropped: the command would otherwise print as if it were absent
    r = run(*command, *stray)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == f"mlpade: {message}\n"


@pytest.mark.parametrize("args, code, message", [
    (("--relaxation", "--alpha", "1.5", "--beta", "0.9"), 3, "alpha must lie in (0,1), got 1.5"),
    (("--relaxation", "--alpha", "0.8", "--c2", "1"), 4, "approximant is not positive"),
    (("--two-term", "--alpha", "0.25", "--lambda", "7"), 3, "--two-term requires --beta"),
    (("--two-term", "--alpha", "0.25", "--beta", "0.75", "--c2", "nan", "--c1", "9"), 3,
     "c2 must be finite, got nan"),
    (("--two-term", "--alpha", "0.25", "--beta", "0.75", "--prefactor", "paper", "--lambda", "7"),
     3, "--prefactor applies to the relaxation equation only"),
])
def test_stray_option_leaves_another_fault_its_message(args, code, message):
    r = run("ode", *args, "--t-grid", "0.1:10:5")
    assert r.returncode == code
    assert r.stdout == ""
    assert r.stderr.startswith(f"mlpade: {message}")


def test_bad_t_grid():
    r = run("ode", "--relaxation", "--alpha", "0.5", "--t-grid", "nonsense")
    assert r.returncode == 3


@pytest.mark.parametrize(
    "args",
    [
        ("ode", "--relaxation", "--alpha", "0.3", "--t-grid", "0.01:inf:5"),
        ("scan", "--alpha", "0.5", "--beta", "1.5", "--grid-max", "inf"),
    ],
)
def test_non_finite_grid_is_a_domain_error(args):
    # refused as a grid bound before numpy sees it: no RuntimeWarning, and
    # no message about the origin or eval_approx
    r = run(*args)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("mlpade: need finite 0 < x_min < x_max")
    assert "Warning" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("ode", "--relaxation", "--alpha", "0.3", "--c1", "nan"),
        ("ode", "--relaxation", "--alpha", "0.3", "--lambda", "inf"),
        ("ode", "--two-term", "--alpha", "0.25", "--beta", "0.75", "--c2", "inf"),
    ],
)
def test_non_finite_ode_constant_is_a_domain_error(args):
    r = run(*args)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith(f"mlpade: {args[-2].lstrip('-')} must be finite")


def test_selftest_passes():
    # one PASS line per row of the table, in its order
    r = run("selftest")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [f"PASS  {row.name}" for row in ROWS]
