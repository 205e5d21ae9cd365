"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/selfcheck.py

(The file name keeps it out of the package's own test run.) It checks that
one seed gives identical inputs twice, that the timed pair mix stays out of
the known-defect region and the probe's mix inside it, that each run reports
the metrics BENCHMARK.json lists, that a traced run and its untraced replay
of the same requests give identical outputs and failure counts, and that two
traced runs rank the layers by self time in the same order.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR]

import inputs  # noqa: E402

SEED = 11
# every traced run makes at least one pass over its pool, which covers every
# pair class; approx-hot makes several, as its layers' self times are close
# and a single short pass is at the mercy of host noise
SECONDS = 6
# layers below this share of the traced self time, or within this ratio of
# each other, are near ties that may swap by noise
RANKED_SHARE = 0.05
TIE_RATIO = 1.25
SPEC = json.loads(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii").read())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def layer_self_s(metrics):
    by_layer = {}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + m["value"]
    return by_layer


def ranking_conflicts(first, second):
    """Layer pairs ranked apart in one run and not in the same order in the
    other. Layers under RANKED_SHARE of the self time, and pairs within
    TIE_RATIO of each other, are near ties that noise may swap."""
    conflicts = []
    for a_run, b_run in ((first, second), (second, first)):
        s, t = layer_self_s(a_run), layer_self_s(b_run)
        big = [k for k, v in s.items() if v >= RANKED_SHARE * sum(s.values())]
        conflicts += [(hi, lo) for hi in big for lo in big
                      if s[hi] > TIE_RATIO * s[lo] and not t.get(hi, 0.0) > t.get(lo, 0.0)]
    return conflicts


@pytest.mark.parametrize("defects", (False, True))
@pytest.mark.parametrize("workload", sorted(inputs.POOLS))
def test_same_seed_same_inputs(workload, defects):
    pool = inputs.make_pool(workload, SEED, defects)
    assert pool == inputs.make_pool(workload, SEED, defects)
    assert pool != inputs.make_pool(workload, SEED + 1, defects)


def in_defect_region(a, b):
    return b > 171.0 or a <= inputs.SMALL_ALPHA or (a == b and inputs.DIAG_MAX < a < 1.0)


@pytest.mark.parametrize("mix", (inputs.MIX, inputs.DEFECT_MIX))
def test_pair_mix_shares(mix):
    import numpy as np

    pairs = inputs.pair_sequence(np.random.default_rng(0), 8, mix)
    assert len(pairs) == 8 * sum(n for _, n in mix)
    for cls, per_cycle in mix:
        assert sum(c == cls for _, _, c, _, _ in pairs) == 8 * per_cycle
    assert all(0.0 < a <= 1.0 and b >= a for a, b, _, _, _ in pairs)
    assert all(in_defect_region(a, b) == (mix is inputs.DEFECT_MIX) for a, b, _, _, _ in pairs)


def test_untraced_run_reports_end_to_end_metrics():
    result = run("approx-hot", 0)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metric_units("end_to_end")


@pytest.mark.parametrize("workload", sorted(inputs.POOLS))
def test_traced_run_matches_untraced_and_ranking_repeats(workload):
    """A traced run replays its requests untraced and is `correct` only when
    every request's outputs and op, failure and wrong counts are identical."""
    traced = run(workload, 1)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == metric_units("per_layer")
    again = run(workload, 1)
    assert again["correct"]
    assert not ranking_conflicts(traced["metrics"], again["metrics"])
