"""mlpade benchmark: end-to-end and per-layer metrics on four workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from ./src.
Workloads (see BENCHMARK.json for why each exists):

  approx-hot     a request is one parameter pair: classify, build, eval,
                 inverse and the rational ODE solution; an op is one value
  scan-grid      a request is one error_scan; an op is one grid point
  oracle-scalar  a request is one bisection inverse scan or one exact ODE
                 t-grid; an op is one inverse point or one exact value
  cli-cold       a request and an op are one `python -m mlpade` process;
                 its traced run records no spans, as the work happens in
                 the child processes

oracle-scalar and cli-cold are not in BENCHMARK.json: their timings swing
with the host by more than the regression bounds allow (see README.md).

One client sends requests back to back (a closed loop), in whole passes
over the workload's seeded pool, until --seconds have gone. Each request's
outputs are checked after it, outside its timed interval.

--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, latency_p50_ms,
latency_p90_ms and peak_rss_mb (see end_to_end). --trace 1 wraps each layer's
public functions, runs passes for half of --seconds, replays the same requests
untraced to measure the tracing overhead, times one `python -m mlpade` run
of each CLI subcommand, and prints the per-layer metrics.
The traced run also makes one untimed pass over a pool of the inputs on
which mlpade is known to fail (inputs.DEFECT_MIX) and reports the share of
those ops that failed as known_defects.failed_frac and .wrong_frac.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. `failed` counts the timed ops that raised or failed a check; any
such failure makes `correct` false, as does tracing changing an output or
the independent reference failing its own validation.
"""

import os

# one thread per process, set before numpy loads: nproc is small
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build")
WORKLOAD_NAMES = ("approx-hot", "scan-grid", "oracle-scalar", "cli-cold")
SETUP_PROBES = 15
TALBOT_SAMPLES = 24
# workloads imports mlpade, so the benchmark's modules are imported inside
# functions, after _use_checkout_source has put this checkout's src/ first


def _use_checkout_source():
    """Import mlpade from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "mlpade", "__init__.py")):
        sys.exit(f"run.py: no mlpade source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import mlpade

    if os.path.dirname(os.path.dirname(os.path.abspath(mlpade.__file__))) != SRC:
        sys.exit(f"run.py: mlpade was imported from {mlpade.__file__}, not {SRC}")


def setup_probe(workload, seed):
    """Child side of setup_s: import mlpade, generate the inputs, report the
    monotonic clock (shared by all processes on the machine)."""
    _use_checkout_source()
    import inputs

    inputs.make_pool(workload, seed)
    print(repr(perf_counter()))


def measure_setup(workload, seed):
    """Median over fresh interpreters of the time from process start to
    inputs ready, the moment the first timed op could run."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(times)


def import_profile():
    """Seconds spent importing mlpade, numpy, scipy and mpmath in a fresh
    interpreter, from `python -X importtime`. A package's share is the self
    time of its own modules, so scipy's import of numpy counts to numpy."""
    import workloads

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mlpade"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT,
                          env=workloads.child_env(), check=True)
    self_us = {"numpy": 0, "scipy": 0, "mpmath": 0}
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        if name == "mlpade":
            total_us = cumulative
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += own
    out = {"import.total_s": total_us * 1e-6}
    out.update({f"import.{k}_s": v * 1e-6 for k, v in self_us.items()})
    return out


class Run:
    """Aggregates of whole passes over a request pool. Per request it keeps
    one latency (and a digest when asked), so the benchmark's own memory
    hardly grows with the number of requests."""

    def __init__(self, pool_size, keep_digests):
        self.pool_size = pool_size
        self.latencies = array("d")
        self.attempted = self.completed = self.failed = self.wrong = 0
        self.errors = Counter()
        self.ops_by_kind = Counter()
        self.latencies_by_sub = defaultdict(list)
        self.digests = [] if keep_digests else None
        self.samples = []

    def add(self, req, latency, verdict, digest):
        self.latencies.append(latency)
        self.attempted += verdict.n_ops
        self.completed += verdict.completed
        self.failed += verdict.failed
        self.wrong += verdict.wrong
        if verdict.error:
            self.errors[verdict.error] += 1
        self.ops_by_kind[req.get("kind")] += verdict.n_ops
        if "sub" in req:
            self.latencies_by_sub[req["sub"]].append(latency)
        if self.digests is not None:
            key = f"{digest}|{verdict.n_ops},{verdict.failed},{verdict.wrong}"
            self.digests.append(hashlib.blake2b(key.encode(), digest_size=16).hexdigest())

    @property
    def requests(self):
        return len(self.latencies)

    @property
    def passes(self):
        return self.requests // self.pool_size

    @property
    def busy(self):
        return math.fsum(self.latencies)

    def best_latencies(self):
        """Each pool request's least latency over the passes. The same work
        was measured to slow by 15% to 50% for seconds at a time on a shared
        host, and that only ever adds time, so the least of passes spread
        over the run is the steadiest measure of what the request costs."""
        n = self.pool_size
        return [min(self.latencies[j::n]) for j in range(n)]


def run_requests(workload, pool, seconds=None, count=None, tracer=None, digests=False):
    """Closed loop over the pool for `count` requests, or in whole passes
    over the pool until `seconds` of wall time have gone."""
    import workloads

    execute, check, sample, digest = workloads.WORKLOADS[workload]
    run = Run(len(pool), digests)
    start = perf_counter()
    i = 0
    while (i < count) if count is not None else (
            i % len(pool) or perf_counter() - start < seconds):
        req = pool[i % len(pool)]
        if tracer is not None:
            tracer.request = i
            tracer.active = True
        t0 = perf_counter()
        out = execute(req)
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
        verdict = check(req, out)
        if sample and i < len(pool) and len(run.samples) < TALBOT_SAMPLES and not verdict.failed:
            run.samples.append(sample(req, out))
        run.add(req, t1 - t0, verdict, digest(out) if digests else None)
        i += 1
    return run


def talbot_pass(run, seed):
    """Check the sampled oracle values against Talbot inversion; a miss makes
    one more op failed and wrong. Returns (misses, validation failures)."""
    import numpy as np

    import talbot

    if not run.samples:
        return 0, 0
    bad_reference = talbot.validate(np.random.default_rng([seed, 7]))
    if bad_reference:
        return 0, len(bad_reference)
    misses = 0
    for alpha, beta, x, value, slack in run.samples:
        if not talbot.agrees(alpha, beta, x, value, slack):
            misses += 1
            run.failed += 1
            run.wrong += 1
    return misses, 0


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(run, setup, workload):
    """Latency percentiles are over the pool's requests, each at its least
    latency over the passes; ops_per_s is the ops one pass completes over
    the sum of those latencies. An op completes when it returns a value,
    right or wrong; ops of a request that raised do not count."""
    best_ms = [t * 1e3 for t in run.best_latencies()]
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (run.completed / run.passes / (math.fsum(best_ms) * 1e-3), "1/s"),
        "latency_p50_ms": (_pct(best_ms, 50), "ms"),
        "latency_p90_ms": (_pct(best_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def peak_rss_mb(workload):
    """Peak RSS of this process; for cli-cold, of its largest child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(tracer, run, replay, cli_run, imports, defects):
    import inputs
    import tracing

    out = {}
    for name in tracing.TRACED_NAMES:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
        out[f"{name}.errors"] = (tracer.errors.get(name, 0), "count")
    eval_us = [d * 1e6 for d in tracer.durations["pade.eval_approx"]]
    oracle_us = [d * 1e6 for d in tracer.durations["reference.ml_oracle"]]
    out["pade.eval_approx.p50_us"] = (_pct(eval_us, 50), "us")
    out["reference.ml_oracle.p50_us"] = (_pct(oracle_us, 50), "us")
    out["reference.ml_oracle.p99_us"] = (_pct(oracle_us, 99), "us")
    inverse_points = run.ops_by_kind["inverse"]
    out["harness.inverse_error_scan.oracle_calls_per_point"] = (
        tracer.oracle_in_inverse_scan / inverse_points if inverse_points else 0.0, "ratio")
    out["pade.build_approx.calls_per_op"] = (
        tracer.calls.get("pade.build_approx", 0) / run.attempted, "ratio")
    out.update({k: (v, "s") for k, v in imports.items()})
    for sub in inputs.CLI_SUBCOMMANDS:
        walls = cli_run.latencies_by_sub.get(sub)
        out[f"cli.{sub}.wall_ms"] = (statistics.median(walls) * 1e3 if walls else 0.0, "ms")
    out["trace.overhead_frac"] = (run.busy / replay.busy - 1.0, "ratio")
    out["known_defects.failed_frac"] = (defects.failed / defects.attempted, "ratio")
    out["known_defects.wrong_frac"] = (defects.wrong / defects.attempted, "ratio")
    return out


def layer_ranking(tracer):
    by_layer = {}
    for name, seconds in tracer.self_s.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    return sorted(by_layer.items(), key=lambda kv: -kv[1])


def environment():
    import mpmath
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__, "cpu": cpu,
            "nproc": os.cpu_count(),
            **{var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def run_one(args):
    _use_checkout_source()
    import inputs
    import tracing

    pool = inputs.make_pool(args.workload, args.seed)
    notes = []
    if args.trace:
        imports = import_profile()
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        run = run_requests(args.workload, pool, seconds=args.seconds / 2.0, tracer=tracer,
                           digests=True)
        uninstall()
        replay = run_requests(args.workload, pool, count=run.requests, digests=True)
        changed = sum(a != b for a, b in zip(run.digests, replay.digests))
        if changed:
            notes.append(f"{changed} requests gave other results traced than untraced")
        # the cli layer: on other workloads, one process per subcommand
        cli_run = replay if args.workload == "cli-cold" else run_requests(
            "cli-cold", inputs.make_pool("cli-cold", args.seed), count=len(inputs.CLI_SUBCOMMANDS))
        if cli_run.failed:
            notes.append(f"{cli_run.failed} CLI runs failed or differed from the in-process result")
        defect_pool = inputs.make_pool(args.workload, args.seed, defects=True)
        defects = run_requests(args.workload, defect_pool, count=len(defect_pool))
        talbot_pass(defects, args.seed)
    else:
        setup = measure_setup(args.workload, args.seed)
        run = run_requests(args.workload, pool, seconds=args.seconds)
    misses, bad_reference = talbot_pass(run, args.seed)
    if bad_reference:
        notes.append(f"Talbot reference failed {bad_reference} closed-form validations")
    if run.failed:
        notes.append(f"{run.failed} ops failed")
    if args.trace:
        metrics = per_layer(tracer, run, replay, cli_run, imports, defects)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_log = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(span_log)
    else:
        metrics = end_to_end(run, setup, args.workload)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{run.passes} passes over {run.pool_size} requests, {run.attempted} ops "
          f"({run.completed} returned a value), {run.busy:.3f} s busy")
    print(f"  failed_frac {run.failed / run.attempted:.6f} ({run.failed} ops), "
          f"wrong_frac {run.wrong / run.attempted:.6f} ({run.wrong} ops), "
          f"talbot misses {misses} of {len(run.samples)} sampled")
    if run.errors:
        print("  requests that raised: "
              + ", ".join(f"{k} {v}" for k, v in sorted(run.errors.items())))
    samples = {"setup_s": SETUP_PROBES}
    if args.trace:
        samples.update({f"cli.{sub}.wall_ms": len(walls)
                        for sub, walls in cli_run.latencies_by_sub.items()})
    for name, (value, unit) in metrics.items():
        n = samples.get(name, run.requests if args.trace else run.pool_size)
        print(f"  {name:<52} {value:>14.6g} {unit:<6} n={n}")
    if args.trace:
        ranking = ", ".join(f"{k} {v:.3f}s" for k, v in layer_ranking(tracer))
        print(f"  layer ranking by self time: {ranking}")
        print(f"  span log {os.path.relpath(span_log, ROOT)}: {len(tracer.spans)} spans; "
              f"{tracer.dropped} more past the {tracing.SPAN_LOG_LIMIT}-span limit "
              "are in the counters only")
    for note in notes:
        print(f"  NOTE: {note}")
    print(json.dumps({"env": environment()}))
    result = {
        "correct": not notes,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload untraced and traced, one child process at a time."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
            else:
                ok &= json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if not os.path.isfile(os.path.join(SRC, "mlpade", "__init__.py")):
        sys.exit(f"run.py: no mlpade source under {SRC}; run from a source checkout")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
