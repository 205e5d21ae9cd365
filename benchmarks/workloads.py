"""The four workloads: how one request drives mlpade and how its outputs
are checked.

`execute` makes the program calls of one request and is the only timed part.
`check` runs after it, untimed and untraced, and returns a Verdict. Every
call goes through the ``mlpade`` package namespace at call time, so the
tracer's wrappers see it.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass

import mlpade as ml

from inputs import inv_gamma

# README max errors on DEFAULT_GRID, at the acceptance-test tolerances
WORKED_MAX_ERROR = {
    (0.5, 1.5): (0.0034, 5e-4),
    (0.5, 1.0): (0.0079, 5e-4),
    (0.5, 0.5): (0.1349, 5e-3),
    (1.0, 2.0): (0.0352, 1e-3),
}
EXIT_PARAM, EXIT_NUMERIC = 3, 4
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Verdict:
    n_ops: int
    completed: int = 0    # ops that returned a value, right or wrong
    failed: int = 0       # ops that raised or failed their check
    wrong: int = 0        # ops that returned a value failing its check
    error: str = ""       # first exception type raised, if any


def _verdict(n_ops, completed, wrong, errors):
    """All ops fail when the request raised; otherwise the wrong ones do."""
    v = Verdict(n_ops, completed=completed, wrong=wrong)
    v.failed = n_ops if errors else wrong
    v.error = type(errors[0]).__name__ if errors else ""
    return v


def _attempt(errors, fn):
    try:
        return fn()
    except Exception as exc:  # any failure is counted, typed or not
        errors.append(exc)
        return None


def _bad_float(v):
    return not (isinstance(v, float) and math.isfinite(v))


# ---------------------------------------------------------------- approx-hot

def _two_term_spec(req):
    return ml.TwoTermSpec(req["beta"] - req["alpha"], req["beta"], req["ode"]["c2"])


def execute_approx(req):
    out = {"errors": []}
    errors = out["errors"]
    params = _attempt(errors, lambda: ml.classify(req["alpha"], req["beta"]))
    if params is None:
        return out
    approx = _attempt(errors, lambda: ml.build_approx(params))
    if approx is not None:
        out["A"] = _attempt(errors, lambda: [ml.eval_approx(approx, x) for x in req["xs"]])
        out["inv_approx"] = _attempt(
            errors, lambda: [ml.inv_pade_from_approx(approx, y) for y in req["ys_approx"]])
    out["inv_pade"] = _attempt(errors, lambda: [ml.inv_pade(params, y) for y in req["ys_inv_pade"]])
    ode = req["ode"]
    if ode is not None and ode["kind"] == "relaxation":
        spec = _attempt(errors, lambda: ml.RelaxationSpec(req["alpha"], ode["lam"], ode["c1"]))
        if spec is not None:
            out["ode"] = _attempt(errors, lambda: [ml.relaxation_pade(spec, t) for t in ode["ts"]])
    elif ode is not None:
        spec = _attempt(errors, lambda: _two_term_spec(req))
        if spec is not None:
            out["ode"] = _attempt(errors, lambda: [ml.two_term_pade(spec, t) for t in ode["ts"]])
    return out


def _ode_expected(req):
    """The rational ODE solution as a substitution into the approximant:
    c * t^p * A(z). None where the approximant cannot be built."""
    ode = req["ode"]
    if ode["kind"] == "relaxation":
        a = req["alpha"]
        pair, scale, power = (a, a), ode["c1"], lambda t: t ** (-a)
        arg = lambda t: ode["lam"] * t**a
    else:
        spec = _two_term_spec(req)
        a_eff = spec.beta - spec.alpha
        pair, scale, power = (a_eff, spec.beta), spec.c2 + 1.0, lambda t: t ** (spec.beta - 1.0)
        arg = lambda t: t**a_eff
    try:
        approx = ml.build_approx(ml.classify(*pair))
    except ml.ConstructionError:
        return None
    return [scale * power(t) * ml.eval_approx(approx, arg(t)) for t in ode["ts"]]


def check_approx(req, out):
    wrong = 0
    hi = inv_gamma(req["beta"])
    values = out.get("A")
    if values is not None:
        order = sorted(range(len(values)), key=lambda i: req["xs"][i])
        prev = math.inf
        for i in order:
            v = values[i]
            # 0 is right only where the true value underflows too: a = b = 1
            # at x > 745; every other regime decays algebraically
            bad = (_bad_float(v) or not 0.0 <= v <= hi * (1.0 + 1e-13)
                   or (v == 0.0 and req["xs"][i] < 700.0) or v > prev * (1.0 + 1e-15))
            wrong += bad
            if not _bad_float(v):
                prev = min(prev, v)
    approx = None
    if out.get("inv_approx") is not None or out.get("inv_pade") is not None:
        try:
            approx = ml.build_approx(ml.classify(req["alpha"], req["beta"]))
        except ml.MLPadeError:
            pass
    for key, ys in (("inv_approx", req["ys_approx"]), ("inv_pade", req["ys_inv_pade"])):
        xs = out.get(key)
        if xs is None:
            continue
        for x, y in zip(xs, ys):
            ok = approx is not None and not _bad_float(x) and x >= 0.0
            wrong += not (ok and abs(ml.eval_approx(approx, x) - y) <= 1e-9 * y)
    if out.get("ode") is not None:
        expected = _ode_expected(req)
        for i, v in enumerate(out["ode"]):
            wrong += (expected is None or _bad_float(v)
                      or abs(v - expected[i]) > 1e-12 * abs(expected[i]))
    n_ops = len(req["xs"]) + len(req["ys_approx"]) + len(req["ys_inv_pade"])
    n_ops += len(req["ode"]["ts"]) if req["ode"] else 0
    completed = sum(len(out.get(k) or ()) for k in ("A", "inv_approx", "inv_pade", "ode"))
    return _verdict(n_ops, completed, wrong, out["errors"])


def digest_approx(out):
    return repr([out.get(k) for k in ("A", "inv_approx", "inv_pade", "ode")]
                + [type(e).__name__ for e in out["errors"]])


# ----------------------------------------------------------------- scan-grid

def execute_scan(req):
    errors = []
    params = _attempt(errors, lambda: ml.classify(req["alpha"], req["beta"]))
    report = None
    if params is not None:
        grid = ml.DEFAULT_GRID if req["grid"] is None else _attempt(
            errors, lambda: ml.GridSpec(*req["grid"], include_zero=True))
        if grid is not None:
            report = _attempt(errors, lambda: ml.error_scan(params, grid))
    return {"errors": errors, "report": report}


def check_scan(req, out):
    report = out["report"]
    wrong = 0
    if report is not None:
        samples = report.samples
        if len(samples) != req["n_ops"]:
            wrong = req["n_ops"]
        else:
            hi = inv_gamma(req["beta"])
            prev = math.inf
            for _, a, o, _ in samples:
                bad = _bad_float(a) or _bad_float(o) or not -1e-10 <= o <= hi + 1e-10
                wrong += bad or o > prev + 1e-10
                if not _bad_float(o):
                    prev = min(prev, o)
            want = WORKED_MAX_ERROR.get((req["alpha"], req["beta"]))
            if req["grid"] is None and abs(report.max_abs_error - want[0]) > want[1]:
                wrong = req["n_ops"]
    completed = req["n_ops"] if report is not None else 0
    return _verdict(req["n_ops"], completed, wrong, out["errors"])


def sample_scan(req, out):
    """(alpha, beta, x, oracle value, slack) at the request's seeded sample."""
    x, _, o, _ = out["report"].samples[req["sample"]]
    return req["alpha"], req["beta"], x, o, 0.0


def digest_scan(out):
    r = out["report"]
    return repr((r.samples, r.max_abs_error) if r else None) + repr(
        [type(e).__name__ for e in out["errors"]])


# ------------------------------------------------------------- oracle-scalar

def execute_oracle(req):
    errors = []
    values = None
    kind = req["kind"]
    if kind == "relaxation":
        spec = _attempt(errors, lambda: ml.RelaxationSpec(req["alpha"], req["lam"], req["c1"]))
        if spec is not None:
            values = _attempt(errors, lambda: [ml.relaxation_exact(spec, t) for t in req["ts"]])
    elif kind == "two_term":
        spec = _attempt(errors, lambda: ml.TwoTermSpec(
            req["beta"] - req["alpha"], req["beta"], req["c2"]))
        if spec is not None:
            values = _attempt(errors, lambda: [ml.two_term_exact(spec, t) for t in req["ts"]])
    else:
        params = _attempt(errors, lambda: ml.classify(req["alpha"], req["beta"]))
        grid = _attempt(errors, lambda: ml.GridSpec(*req["y_grid"]))
        if params is not None and grid is not None:
            report = _attempt(errors, lambda: ml.inverse_error_scan(params, grid))
            values = report.samples if report is not None else None
    return {"errors": errors, "values": values}


def check_oracle(req, out):
    wrong = 0
    values = out["values"]
    if values is not None and len(values) != req["n_ops"]:
        wrong = req["n_ops"]
    elif values is not None and req["kind"] == "inverse":
        wrong = sum(_bad_float(xa) or _bad_float(xt) or xa < 0.0 or xt < 0.0
                    for _, xa, xt, _ in values)
    elif values is not None:
        wrong = sum(_bad_float(v) or v <= 0.0 for v in values)
    completed = req["n_ops"] if values is not None else 0
    return _verdict(req["n_ops"], completed, wrong, out["errors"])


def sample_oracle(req, out):
    """(alpha, beta, x, E value, slack) implied by the request's seeded
    sample. A bisection inverse x_true only promises |E(x_true) - y| within
    its 1e-10 stopping tolerance, hence the slack."""
    i = req["sample"]
    if req["kind"] == "inverse":
        y, _, x_true, _ = out["values"][i]
        return req["alpha"], req["beta"], x_true, y, 1e-10
    t, v = req["ts"][i], out["values"][i]
    if req["kind"] == "relaxation":
        a = req["alpha"]
        return a, a, req["lam"] * t**a, v / (req["c1"] * t ** (-a)), 0.0
    alpha_t = req["beta"] - req["alpha"]
    a_eff = req["beta"] - alpha_t
    return a_eff, req["beta"], t**a_eff, v / ((req["c2"] + 1.0) * t ** (req["beta"] - 1.0)), 0.0


def digest_oracle(out):
    return repr(out["values"]) + repr([type(e).__name__ for e in out["errors"]])


# ------------------------------------------------------------------ cli-cold

def cli_argv(req):
    r = repr
    sub = req["sub"]
    if sub == "coeffs_table1":
        return ["coeffs", "--table1"]
    pair = ["--alpha", r(req["alpha"]), "--beta", r(req["beta"])]
    if sub in ("eval", "eval_exact"):
        return ["eval", *pair, "--x", r(req["x"])] + (["--exact"] if sub == "eval_exact" else [])
    if sub == "inverse":
        return ["inverse", *pair, "--y", r(req["y"])]
    if sub == "scan":
        lo, hi, n = req["grid"]
        return ["scan", *pair, "--grid-min", r(lo), "--grid-max", r(hi), "--points", str(n)]
    t_grid = "{}:{}:{}".format(*req["t_grid"])
    if sub == "ode_relaxation":
        return ["ode", "--relaxation", "--alpha", r(req["alpha"]), "--lambda", r(req["lam"]),
                "--c1", r(req["c1"]), "--t-grid", t_grid]
    return ["ode", "--two-term", "--alpha", r(req["t_alpha"]), "--beta", r(req["beta"]),
            "--c2", r(req["c2"]), "--t-grid", t_grid]


def child_env():
    """This process's environment with the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def execute_cli(req):
    """One CLI process, `python -m mlpade`, run to its end."""
    proc = subprocess.run([sys.executable, "-m", "mlpade", *cli_argv(req)],
                          capture_output=True, timeout=120, env=child_env(), cwd=ROOT)
    return {"stdout": proc.stdout, "code": proc.returncode}


def _fs(v):
    return ml.format_shortest(v)


def _expected_stdout(req):
    sub = req["sub"]
    if sub == "coeffs_table1":
        lines = ["regime       alpha beta  coefficients of (n0+n1*x)/(1+d1*x+d2*x^2)"]
        for a, b in WORKED_MAX_ERROR:
            p = ml.classify(a, b)
            ap = ml.build_approx(p)
            lines.append(f"{p.regime.value:<12} {_fs(a):<5} {_fs(b):<5} n0={_fs(ap.n0)} "
                         f"n1={_fs(ap.n1)} d1={_fs(ap.d1)} d2={_fs(ap.d2)}")
        return "\n".join(lines) + "\n"
    if sub.startswith("ode"):
        ts = ml.GridSpec(*req["t_grid"]).points()
        if sub == "ode_relaxation":
            spec = ml.RelaxationSpec(req["alpha"], req["lam"], req["c1"])
            rows = [(t, ml.relaxation_pade(spec, t), ml.relaxation_exact(spec, t)) for t in ts]
        else:
            spec = ml.TwoTermSpec(req["t_alpha"], req["beta"], req["c2"])
            rows = [(t, ml.two_term_pade(spec, t), ml.two_term_exact(spec, t)) for t in ts]
        worst = max(((t, abs(p - e)) for t, p, e in rows), key=lambda r: r[1])
        return f"{_fs(worst[1])},{_fs(worst[0])}\n"
    params = ml.classify(req["alpha"], req["beta"])
    if sub == "eval":
        return _fs(ml.eval_approx(ml.build_approx(params), req["x"])) + "\n"
    if sub == "eval_exact":
        return _fs(ml.ml_oracle(params, req["x"])) + "\n"
    if sub == "inverse":
        return _fs(ml.inv_pade(params, req["y"])) + "\n"
    lo, hi, n = req["grid"]
    rep = ml.error_scan(params, ml.GridSpec(lo, hi, n, include_zero=True))
    return f"{_fs(params.alpha)},{_fs(params.beta)},{_fs(rep.max_abs_error)},{_fs(rep.argmax_x)}\n"


def expected_cli(req):
    """(stdout bytes, exit code) the CLI must produce, computed in-process
    from the public functions and format_shortest."""
    try:
        return _expected_stdout(req).encode("ascii"), 0
    except ml.DomainError:
        return b"", EXIT_PARAM
    except ml.MLPadeError:
        return b"", EXIT_NUMERIC
    except Exception:  # an untyped error surfaces as a traceback, exit 1
        return b"", 1


def check_cli(req, out):
    want_stdout, want_code = expected_cli(req)
    v = Verdict(1, completed=int(out["code"] == 0))
    mismatch = out["stdout"] != want_stdout or out["code"] != want_code
    v.wrong = int(mismatch)
    v.failed = int(mismatch or out["code"] != 0)
    v.error = "" if out["code"] == 0 else f"exit {out['code']}"
    return v


def digest_cli(out):
    return repr((out["stdout"], out["code"]))


WORKLOADS = {
    "approx-hot": (execute_approx, check_approx, None, digest_approx),
    "scan-grid": (execute_scan, check_scan, sample_scan, digest_scan),
    "oracle-scalar": (execute_oracle, check_oracle, sample_oracle, digest_oracle),
    "cli-cold": (execute_cli, check_cli, None, digest_cli),
}

