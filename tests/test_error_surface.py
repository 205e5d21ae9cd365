"""The public error surface: one class per outcome a caller can act on, and
no class that nothing in the package raises."""

import inspect
from pathlib import Path

import mlpade
from mlpade import errors

SIX = {
    "MLPadeError",
    "DomainError",
    "ParameterDomainError",
    "NonConvergenceError",
    "ConstructionError",
    "ResultOverflowError",
}


def _error_classes():
    return [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    ]


def test_the_public_errors_are_the_six():
    assert {name for name in mlpade.__all__ if name.endswith("Error")} == SIX
    assert {cls.__name__ for cls in _error_classes()} == SIX


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    package = Path(mlpade.__file__).parent
    source = "".join(p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py")))
    raised = [cls for cls in _error_classes() if f"raise {cls.__name__}(" in source]
    unraised = [
        cls.__name__ for cls in _error_classes()
        if not any(issubclass(r, cls) for r in raised)
    ]
    assert unraised == []
