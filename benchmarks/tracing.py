"""Spans around the public functions of each mlpade layer, recorded from
outside the package.

`install` replaces every binding of a traced function in the loaded
``mlpade`` modules (``mlpade.harness.ml_oracle``, ``mlpade.reference.ml_taylor``,
``mlpade.pade.gamma`` ...) with a wrapper, so calls the package makes to
itself are seen as well as the benchmark's own calls. No file of the package
is touched.

Counters (calls, self time, errors) are kept for every call. Self time is a
span's duration minus the time its child spans cover. Span records (name,
start, end, parent, request) are kept in memory up to SPAN_LOG_LIMIT and
written out when the run ends; `dropped` counts the spans past that limit,
which bounds the tracer's memory on oracle-heavy workloads, where a single
request can open thousands of `special.rgamma` spans.
"""

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

TRACED = {
    "params": ("classify",),
    "pade": ("build_approx", "eval_approx"),
    "inverse": ("inv_pade", "inv_pade_from_approx"),
    "reference": ("ml_oracle", "ml_closed_form", "ml_taylor", "ml_asymptotic"),
    "harness": ("error_scan", "inverse_error_scan"),
    "fode": ("relaxation_pade", "two_term_pade", "relaxation_exact", "two_term_exact"),
    "special": ("gamma", "rgamma", "erfcx"),
}
TRACED_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
# per-call durations are kept for these, for latency percentiles
TIMED_NAMES = ("pade.eval_approx", "reference.ml_oracle")
SPAN_LOG_LIMIT = 100_000


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.durations = {name: array("d") for name in TIMED_NAMES}
        # oracle calls made while an inverse_error_scan span is open
        self.oracle_in_inverse_scan = 0
        self._stack = []  # [span id, child seconds, name] per open span
        self._next_id = 0
        self.spans = []
        self.dropped = 0

    def wrap(self, name, fn):
        stack = self._stack
        durations = self.durations.get(name)
        counts_inverse_oracle = name == "reference.ml_oracle"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if durations is not None:
                    durations.append(dur)
                if counts_inverse_oracle and any(
                    f[2] == "harness.inverse_error_scan" for f in stack
                ):
                    self.oracle_in_inverse_scan += 1
                if len(self.spans) < SPAN_LOG_LIMIT:
                    self.spans.append((name, start, end, parent, sid, self.request))
                else:
                    self.dropped += 1

        return traced

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, sid, request in self.spans:
                fh.write(json.dumps({"name": name, "id": sid, "parent": parent,
                                     "request": request, "start": start, "end": end}))
                fh.write("\n")


def install(tracer):
    """Wrap every traced function at each mlpade module attribute bound to it.
    Returns a function that restores the originals."""
    targets = {}
    for module_name, functions in TRACED.items():
        module = sys.modules[f"mlpade.{module_name}"]
        for fn_name in functions:
            fn = getattr(module, fn_name)
            targets[id(fn)] = (fn, tracer.wrap(f"{module_name}.{fn_name}", fn))
    patched = []
    modules = [m for n, m in sys.modules.items() if n == "mlpade" or n.startswith("mlpade.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    def uninstall():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return uninstall
