"""The names the benchmark under `benchmarks/` reaches into the package by.

The benchmark is run against the package as it stands, so renaming or
removing one of these names breaks its runs without failing another test.
Both checks only read the benchmark's files; neither installs the tracer.
"""

import importlib.util
import re
from pathlib import Path

import mlpade

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _load("tracing").TRACED
    missing = [
        f"mlpade.{module}.{fn}"
        for module, functions in traced.items()
        for fn in functions
        if not callable(getattr(importlib.import_module(f"mlpade.{module}"), fn, None))
    ]
    assert missing == []


def test_every_name_the_workloads_use_is_exported():
    text = (BENCHMARKS / "workloads.py").read_text()
    names = set(re.findall(r"\bml\.([A-Za-z_]\w*)", text))
    assert "classify" in names  # the pattern still finds the workloads' calls
    assert sorted(n for n in names if not hasattr(mlpade, n)) == []
