"""Seeded inputs for the mlpade benchmark.

Every parameter pair, grid and time grid a workload hands to the program is
drawn here from the workload seed. This module does not import mlpade, so the
inputs cannot depend on the code under test.

Pairs come from the region {0 < a <= 1, b >= a} in fixed shares per cycle.
The timed workloads draw from MIX, the part of the region on which the
package is meant to return right values. DEFECT_MIX holds the parts on which
it is known to fail or be wrong; the traced run probes them once, untimed,
so those failures are still counted (see run.py) without making the timed
op counts depend on how many passes a run makes. Within a pool every class is
drawn from one randomly shifted lattice over all of the pool's cycles, so
each pool covers each class range evenly whatever the seed. That keeps the
cost mix, and with it the timings, steady from seed to seed. A run makes
whole passes over its workload's pool, so every run of one seed times the
same requests.
"""

import math

import numpy as np

WORKED_PAIRS = ((0.5, 1.5), (0.5, 1.0), (0.5, 0.5), (1.0, 2.0))

# alpha below this is in the oracle's known-defect region
SMALL_ALPHA = 0.1
# the diagonal approximant exceeds 1/Gamma(a) near x = 0 above this
DIAG_MAX = 0.5

# (class, pairs per cycle)
MIX = (
    ("worked", 1),       # the README worked pairs, in turn
    ("alpha_one", 2),    # a = 1: half of them a = b = 1
    ("beta_one", 2),     # b = 1, a in (0.1, 1)
    ("diag", 2),         # a = b in (0.1, 0.5]
    ("general", 6),      # a in (0.1, 1), b in (a, a + 3); a third b < 1
)
# Found by probing the package:
# - a = b > 0.5: the diagonal approximant exceeds 1/Gamma(a) and rises near
#   0 below a* ~ 0.6512, and above a* has a pole, which relaxation_pade
#   does not see;
# - a <= 0.1: the oracle raises NonConvergenceError or is wrong by up to 3e-2
#   near its Taylor/asymptotic crossover, x ~ 40^a;
# - b > 171: Gamma overflows and build_approx raises ConstructionError.
DEFECT_MIX = (
    ("diag_high", 1),    # a = b in (0.5, 1)
    ("small_alpha", 1),  # a in (0, 0.1], b in (a, a + 3); a third b < 1
    ("big_beta", 1),     # a in (0, 1], b in (171, 174)
)

# scan-grid log grids: points, decades spanned, and steps below the crossover
SCAN_POINTS, SCAN_DECADES, SCAN_BELOW = 30, 3.25, 18

CLI_SUBCOMMANDS = (
    "eval",
    "eval_exact",
    "inverse",
    "coeffs_table1",
    "ode_relaxation",
    "ode_two_term",
    "scan",
)


def inv_gamma(b):
    """1/Gamma(b) for b > 0, from lgamma so it never overflows."""
    return math.exp(-math.lgamma(b))


# steps of the R2 low-discrepancy sequence, 1/rho and 1/rho^2 for the
# plastic number rho
LATTICE = np.array([0.7548776662466927, 0.5698402909980532])


def _shifted_lattice(rng, n):
    """n points (u, v, w) in the unit cube: u = (k + s) / n and (v, w) along
    the R2 sequence, all under one random shift. Every seed's points are the
    same lattice moved by less than a stratum, so each pool meets the costly
    corners in the same measure."""
    k = np.arange(n)[:, None]
    pts = (np.hstack([k / n, k * LATTICE]) + rng.uniform(0.0, 1.0, 3) * [1.0 / n, 1.0, 1.0]) % 1.0
    return np.clip(pts, 1e-12, 1.0 - 1e-12).T


def _pair(cls, i, u, v):
    if cls == "worked":
        return WORKED_PAIRS[i % len(WORKED_PAIRS)]
    if cls == "alpha_one":
        return (1.0, 1.0) if i % 2 == 0 else (1.0, 1.0 + 4.0 * v)
    if cls == "beta_one":
        return SMALL_ALPHA + (1.0 - SMALL_ALPHA) * u, 1.0
    if cls == "diag":
        a = SMALL_ALPHA + (DIAG_MAX - SMALL_ALPHA) * u
        return a, a
    if cls == "diag_high":
        a = DIAG_MAX + (1.0 - DIAG_MAX) * u
        return a, a
    if cls in ("small_alpha", "general"):
        a = SMALL_ALPHA * (1.0 - u) if cls == "small_alpha" else SMALL_ALPHA + 0.9 * u
        # whether b < 1 decides the ODE a request can use and much of the
        # oracle's cost, so its share is fixed rather than drawn
        return a, (a + (1.0 - a) * v) if i % 3 == 0 else 1.0 + (a + 2.0) * v
    if cls == "big_beta":
        return 1.0 - u, 171.0 + 3.0 * v
    raise ValueError(cls)


def pair_sequence(rng, n_cycles, mix=MIX):
    """List of (alpha, beta, class, rank, w) in mix's class shares, shuffled.
    rank orders a pair's first coordinate among its class, so even and odd
    ranks each cover the class range evenly; w in (0, 1) is one more
    lattice coordinate, for the request's own largest cost driver."""
    out = []
    for cls, per_cycle in mix:
        n = per_cycle * n_cycles
        us, vs, ws = _shifted_lattice(rng, n)
        for i in range(n):
            a, b = _pair(cls, i, float(us[i]), float(vs[i]))
            out.append((float(a), float(b), cls, i, float(ws[i])))
    return [out[j] for j in rng.permutation(len(out))]


def _log_uniform(rng, lo, hi, n=None):
    return 10.0 ** rng.uniform(lo, hi, n)


def _floats(arr):
    return [float(v) for v in arr]


def approx_hot(rng, mix, n_cycles=32):
    """One request per pair: eval sets, inverse y set and rational ODE t-grid."""
    pool = []
    for a, b, cls, _, _ in pair_sequence(rng, n_cycles, mix):
        hi = inv_gamma(b)
        xs_log = np.geomspace(_log_uniform(rng, -4, -2), _log_uniform(rng, 2, 4), 64)
        xs = [0.0] + _floats(xs_log) + _floats(_log_uniform(rng, -3, 3, 64))
        xs.append(float(_log_uniform(rng, 101, 120)))
        ys = _floats(hi * _log_uniform(rng, -6, math.log10(0.999), 32))
        req = {"alpha": a, "beta": b, "cls": cls, "xs": xs,
               "ys_approx": ys[:16], "ys_inv_pade": ys[16:], "ode": None}
        ts = _floats(np.geomspace(_log_uniform(rng, -2.5, -1.5),
                                  _log_uniform(rng, 1.5, 2.5), 32))
        lam, c = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        c2 = float(rng.uniform(0.0, 1.0))
        if a == b and a < 1.0:
            req["ode"] = {"kind": "relaxation", "lam": lam, "c1": c, "ts": ts}
        elif b < 1.0:
            req["ode"] = {"kind": "two_term", "c2": c2, "ts": ts}
        pool.append(req)
    return pool


def scan_grid(rng, mix, n_cycles=8):
    """One error scan per pair over a 30-point log grid; the worked pairs
    use the default grid."""
    pool = []
    for a, b, cls, _, w in pair_sequence(rng, n_cycles, mix):
        if cls == "worked":
            grid = None
            n_ops = 4001
        else:
            # A point costs the oracle most just below x = min(30, 40^a),
            # where it leaves the Taylor series for the asymptotic one: there
            # the series needs most terms, or arbitrary precision. The grid
            # is placed so that its point nearest below is a lattice
            # fraction w of a grid step away, not wherever it happens to fall.
            step = SCAN_DECADES / (SCAN_POINTS - 1)
            lo = min(30.0, 40.0**a) * 10.0 ** (-(SCAN_BELOW + w) * step)
            grid = (lo, lo * 10.0**SCAN_DECADES, SCAN_POINTS)
            n_ops = SCAN_POINTS + 1
        pool.append({"alpha": a, "beta": b, "cls": cls, "grid": grid,
                     "n_ops": n_ops, "sample": int(rng.integers(0, n_ops))})
    return pool


def oracle_scalar(rng, mix, n_cycles=24):
    """Exact ODE t-grids and bisection inverse scans in fixed shares: the
    diagonal pairs give relaxation requests, every second general and
    small-alpha pair a two-term request with b moved into (a, 1), the rest
    inverse scans of two points. The pool holds far more than 32 pairs, so
    the oracle's per-pair coefficient cache keeps turning over."""
    pool = []
    for a, b, cls, rank, w in pair_sequence(rng, n_cycles, mix):
        # An exact value costs most where lam^(1/a) * t nears the oracle's
        # crossover; the lattice coordinate w places the t-grid and lam, so each
        # pool meets that region in the same measure.
        ts = _floats(np.geomspace(10.0 ** (w - 2.0), 10.0 ** (w + 1.0), 4))
        lam = float(2.0 ** (2.0 * w - 1.0))
        c = float(rng.uniform(0.5, 2.0))
        c2 = float(rng.uniform(0.0, 1.0))
        req = {"alpha": a, "beta": b, "cls": cls}
        if cls.startswith("diag"):
            req.update(kind="relaxation", lam=lam, c1=c, ts=ts, n_ops=len(ts))
        elif cls in ("general", "small_alpha") and rank % 2:
            b = a + (1.0 - a) * (b - a) / 3.0
            req.update(beta=b, kind="two_term", c2=c2, ts=ts, n_ops=len(ts))
        else:
            hi = inv_gamma(b)
            y_grid = (float(hi * 10.0 ** (2.0 * w - 4.0)), float(hi * rng.uniform(0.5, 0.95)), 2)
            req.update(kind="inverse", y_grid=y_grid, n_ops=2)
        req["sample"] = int(rng.integers(0, req["n_ops"]))
        pool.append(req)
    return pool


def cli_cold(rng, mix, n_cycles=3):
    """A fixed rotation over the CLI subcommands; one invocation each. The
    relaxation ODE takes its diagonal from mix's range; the two-term ODE
    evaluates E_{beta-alpha, beta} with beta - alpha above SMALL_ALPHA."""
    cycle_len = sum(n for _, n in mix)
    pairs = iter(pair_sequence(rng, math.ceil(4 * n_cycles / cycle_len), mix))
    diag_cls, lo, hi = ("diag_high", DIAG_MAX, 1.0) if mix is DEFECT_MIX else (
        "diag", SMALL_ALPHA, DIAG_MAX)
    pool = []
    for cycle in range(n_cycles):
        for sub in CLI_SUBCOMMANDS:
            req = {"sub": sub}
            if sub in ("eval", "eval_exact", "inverse", "scan"):
                a, b, cls, _, _ = next(pairs)
                req.update(alpha=a, beta=b, cls=cls)
                if sub == "inverse":
                    req["y"] = float(inv_gamma(b) * _log_uniform(rng, -3, math.log10(0.99)))
                elif sub == "scan":
                    req["grid"] = (1e-3, 1e3, 20)
                else:
                    req["x"] = float(_log_uniform(rng, -2, 2))
            elif sub == "ode_relaxation":
                a = float(rng.uniform(lo, hi))
                req.update(alpha=a, beta=a, cls=diag_cls,
                           lam=float(rng.uniform(0.5, 2.0)), c1=float(rng.uniform(0.5, 2.0)),
                           t_grid=(0.01, 100.0, 20))
            elif sub == "ode_two_term":
                beta = float(rng.uniform(0.2, 1.0))
                a_eff = float(SMALL_ALPHA + (beta - SMALL_ALPHA) * rng.uniform(0.05, 0.95))
                # two-term (alpha, beta) evaluates E_{beta-alpha, beta}
                req.update(alpha=a_eff, beta=beta, cls="two_term", t_alpha=beta - a_eff,
                           c2=float(rng.uniform(0.0, 1.0)), t_grid=(0.01, 100.0, 20))
            pool.append(req)
    return pool


POOLS = {
    "approx-hot": approx_hot,
    "scan-grid": scan_grid,
    "oracle-scalar": oracle_scalar,
    "cli-cold": cli_cold,
}


def make_pool(workload, seed, defects=False):
    """The request pool of `workload` for `seed`, over MIX, or over
    DEFECT_MIX when `defects`; the same seed gives the same pool."""
    key = [seed, sorted(POOLS).index(workload)] + ([1] if defects else [])
    return POOLS[workload](np.random.default_rng(key), DEFECT_MIX if defects else MIX)
