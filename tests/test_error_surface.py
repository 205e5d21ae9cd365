"""The public error surface: one class per outcome a caller can act on, no
class that nothing in the package raises, and a typed error for an argument
of the wrong kind at each evaluator's edge."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import mlpade
from mlpade import errors, reference, special

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


P, HALF = mlpade.classify(0.3, 0.9), mlpade.classify(0.5, 1.0)
APPROX = mlpade.build_approx(P)


BAD_ARGUMENTS = [
    (lambda: mlpade.eval_approx(APPROX, [1.0, 2.0]), "eval_approx takes a float or a 1-D array, got list"),
    (lambda: mlpade.ml_oracle(P, [1.0, 2.0]), "ml_oracle takes a float or a 1-D array, got list"),
    (lambda: mlpade.ml_oracle(HALF, "1.5"), "ml_oracle takes a float or a 1-D array, got str"),
    (lambda: reference.ml_closed_form(HALF, np.array([1.0, 2.0])), "ml_closed_form takes a float, got ndarray"),
    (lambda: reference.ml_taylor(P, np.array([0.5])), "ml_taylor takes a float, got ndarray"),
    (lambda: reference.ml_asymptotic(P, np.array([100.0, 200.0])), "ml_asymptotic takes a float, got ndarray"),
    (lambda: special.erfcx(math.nan), "erfcx requires x >= 0, got nan"),
    (lambda: special.erfcx(np.array([1.0, math.nan])), "erfcx requires x >= 0, got nan"),
    (lambda: special.erfcx([1.0]), "erfcx takes a float or a 1-D array, got list"),
]


@pytest.mark.parametrize("call,message", BAD_ARGUMENTS, ids=[message for _, message in BAD_ARGUMENTS])
def test_a_bad_argument_is_a_domain_error_naming_the_op(call, message):
    with pytest.raises(mlpade.DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_real_scalars_and_0d_arrays_count_as_floats():
    assert special.erfcx(math.inf) == 0.0
    assert special.erfcx(np.array([math.inf, 1.0])).tolist() == [0.0, special.erfcx(1.0)]
    for x in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
        for f in (reference.ml_taylor, reference.ml_closed_form, mlpade.ml_oracle):
            assert f(HALF, x) == f(HALF, 0.5)
        assert reference.ml_asymptotic(P, 400 * x) == reference.ml_asymptotic(P, 200.0)
        assert special.erfcx(x) == special.erfcx(0.5)
    assert mlpade.eval_approx(APPROX, np.float32(0.5)) == mlpade.eval_approx(APPROX, 0.5)
