"""Shared test setup: the CLI tests start `python -m mlpade` in subprocesses, which
must import the same package as the tests do, so its directory goes first on
the PYTHONPATH they inherit."""

import os

import mlpade

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(mlpade.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
