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
# alpha = 1 with d2 = 1e7: past x = 1e100 its rescaled form differs from the
# direct one in the last digit
STEEP = mlpade.build_approx(mlpade.classify(1.0, 1.0000001))
EXP = mlpade.build_approx(mlpade.classify(1.0, 1.0))
RELAX = mlpade.RelaxationSpec(0.3, 1.5, 0.7)
TWO = mlpade.TwoTermSpec(0.25, 0.75, 0.5)
GRID = mlpade.GridSpec(100.0, 200.0, 3)


BAD_ARGUMENTS = [
    (lambda: mlpade.eval_approx(APPROX, [1.0, 2.0]), "eval_approx takes a float or a 1-D array, got list"),
    (lambda: mlpade.ml_oracle(P, [1.0, 2.0]), "ml_oracle takes a float or a 1-D array, got list"),
    (lambda: mlpade.ml_oracle(HALF, "1.5"), "ml_oracle takes a float or a 1-D array, got str"),
    (lambda: reference.ml_closed_form(HALF, np.array([1.0, 2.0])), "ml_closed_form takes a float, got ndarray"),
    (lambda: reference.ml_taylor(P, np.array([0.5])), "ml_taylor takes a float, got ndarray"),
    (lambda: reference.ml_asymptotic(P, np.array([100.0, 200.0])), "ml_asymptotic takes a float, got ndarray"),
    # the one-point views refuse a grid, which the array entry points take
    (lambda: reference.ml_closed_form(HALF, GRID), "ml_closed_form takes a float, got GridSpec"),
    (lambda: reference.ml_taylor(P, GRID), "ml_taylor takes a float, got GridSpec"),
    (lambda: reference.ml_asymptotic(P, GRID), "ml_asymptotic takes a float, got GridSpec"),
    (lambda: special.erfcx(math.nan), "erfcx requires x >= 0, got nan"),
    (lambda: special.erfcx(np.array([1.0, math.nan])), "erfcx requires x >= 0, got nan"),
    (lambda: special.erfcx([1.0]), "erfcx takes a float or a 1-D array, got list"),
    (lambda: mlpade.inv_pade_from_approx(APPROX, "0.1"), "inv_pade_from_approx takes a float, got str"),
    (lambda: mlpade.inv_pade_from_approx(APPROX, [0.1]), "inv_pade_from_approx takes a float, got list"),
    (lambda: mlpade.inv_pade_from_approx(APPROX, None), "inv_pade_from_approx takes a float, got NoneType"),
    (lambda: mlpade.inv_pade_from_approx(APPROX, np.array([0.1, 0.2])), "inv_pade_from_approx takes a float, got ndarray"),
    # inv_pade hands y to inv_pade_from_approx, which names itself
    (lambda: mlpade.inv_pade(P, (0.1,)), "inv_pade_from_approx takes a float, got tuple"),
    (lambda: mlpade.relaxation_pade(RELAX, "1.0"), "relaxation_pade takes a float, got str"),
    (lambda: mlpade.relaxation_exact(RELAX, [1.0]), "relaxation_exact takes a float, got list"),
    (lambda: mlpade.two_term_pade(TWO, np.array([1.0, 2.0])), "two_term_pade takes a float, got ndarray"),
    (lambda: mlpade.two_term_exact(TWO, None), "two_term_exact takes a float, got NoneType"),
]


@pytest.mark.parametrize("call,message", BAD_ARGUMENTS, ids=[message for _, message in BAD_ARGUMENTS])
def test_a_bad_argument_is_a_domain_error_naming_the_op(call, message):
    with pytest.raises(mlpade.DomainError, match=f"^{re.escape(message)}$"):
        call()


def _same_float(got, want):
    return type(got) is float and got.hex() == want.hex()


def test_real_scalars_and_0d_arrays_count_as_floats():
    assert special.erfcx(math.inf) == 0.0
    assert special.erfcx(np.array([math.inf, 1.0])).tolist() == [0.0, special.erfcx(1.0)]
    for x in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
        for f in (reference.ml_taylor, reference.ml_closed_form, mlpade.ml_oracle):
            assert f(HALF, x) == f(HALF, 0.5)
        assert reference.ml_asymptotic(P, 400 * x) == reference.ml_asymptotic(P, 200.0)
        assert special.erfcx(x) == special.erfcx(0.5)
    assert mlpade.eval_approx(APPROX, np.float32(0.5)) == mlpade.eval_approx(APPROX, 0.5)
    # the product path returns the float call's value as a Python float
    for x in (np.float64(3.0), np.array(3.0), 3):
        assert _same_float(mlpade.eval_approx(APPROX, x), mlpade.eval_approx(APPROX, 3.0))
    for y in (np.float64(0.1), np.array(0.1)):
        assert _same_float(mlpade.inv_pade_from_approx(APPROX, y), mlpade.inv_pade_from_approx(APPROX, 0.1))
        assert _same_float(mlpade.inv_pade(P, y), mlpade.inv_pade(P, 0.1))
    # numpy's pow rounds some of these t otherwise than float's
    ts = 10.0 ** np.random.default_rng(14).uniform(-2.0, 2.0, 200)
    for t in ts:
        t0 = float(t)
        for spec, f in ((RELAX, mlpade.relaxation_pade), (TWO, mlpade.two_term_pade)):
            assert _same_float(f(spec, np.array(t0)), f(spec, t0)), (f.__name__, t0)
            assert _same_float(f(spec, t), f(spec, t0)), (f.__name__, t0)
    for spec, f in ((RELAX, mlpade.relaxation_exact), (TWO, mlpade.two_term_exact)):
        assert _same_float(f(spec, np.array(2.5)), f(spec, 2.5))


NEXT_1E100 = math.nextafter(1e100, math.inf)
TARGETS = {
    "APPROX": APPROX, "STEEP": STEEP, "EXP": EXP, "P": P, "RELAX": RELAX, "TWO": TWO,
    # t^p overflows at subnormal t for p = -0.99 and -0.98
    "RELAX_99": mlpade.RelaxationSpec(0.99, 1.0, 1.0),
    "RELAX_01": mlpade.RelaxationSpec(0.01, 1.0, 1.0),
    "TWO_98": mlpade.TwoTermSpec(0.01, 0.02, 0.0),
    "RELAX_HALF": mlpade.RelaxationSpec(0.5, 1.0, 1.0),
    # lambda * t^alpha overflows at t = 1e300
    "RELAX_STIFF": mlpade.RelaxationSpec(0.5, 1e300, 1.0),
    # the approximant is refused: not monotone, and degenerate matching conditions
    "RELAX_62": mlpade.RelaxationSpec(0.62, 1.0, 1.0),
    "TWO_DEGENERATE": mlpade.TwoTermSpec(0.04, 0.04 + 1e-9, 0.0),
}
EVAL, INV = mlpade.eval_approx, mlpade.inv_pade_from_approx

# the values at the edges of each hot case's admission test, and the
# messages a float outside it gets: (function, first argument, the others,
# want), where a str want is a DomainError's message
ADMISSION_EDGES = [
    (EVAL, "APPROX", (0.0,), 0.9357787209128731),
    (EVAL, "APPROX", (-0.0,), 0.9357787209128731),
    (EVAL, "APPROX", (5e-324,), 0.9357787209128731),
    (EVAL, "APPROX", (1e100,), 6.715049724420734e-101),
    (EVAL, "APPROX", (NEXT_1E100,), 6.715049724420734e-101),
    (EVAL, "APPROX", (1e300,), 6.715049724420735e-301),
    (EVAL, "STEEP", (1e100,), 1.0000000583054273e-107),
    (EVAL, "STEEP", (NEXT_1E100,), 1.000000058305427e-107),
    (EVAL, "STEEP", (1e300,), 1.000000058305427e-307),
    (EVAL, "EXP", (1e100,), 0.0),
    (INV, "APPROX", (APPROX.n0,), 0.0),
    (INV, "APPROX", (math.nextafter(APPROX.n0, 0.0),), 1.90781339913799e-16),
    # b*b overflows: the root comes from _root_past_overflow
    (INV, "APPROX", (1e-300 * APPROX.n0,), 7.175894871674421e+299),
    (INV, "STEEP", (STEEP.n0,), 0.0),
    (INV, "STEEP", (math.nextafter(STEEP.n0, 0.0),), 2.2204462663645365e-16),
    (INV, "EXP", (1.0,), 0.0),
    (EVAL, "APPROX", (-1.0,), "eval_approx requires finite x >= 0, got -1.0"),
    (EVAL, "APPROX", (math.inf,), "eval_approx requires finite x >= 0, got inf"),
    (EVAL, "EXP", (math.nan,), "eval_approx requires finite x >= 0, got nan"),
    (INV, "APPROX", (0.0,), "y=0.0 outside (0, 0.9357787209128731]"),
    (INV, "APPROX", (-1.0,), "y=-1.0 outside (0, 0.9357787209128731]"),
    (INV, "APPROX", (1.0,), "y=1.0 outside (0, 0.9357787209128731]"),
    (mlpade.inv_pade, "P", (math.nan,), "y=nan outside (0, 0.9357787209128731]"),
    (INV, "EXP", (2.0,), "y=2.0 outside (0, 1]"),
    (mlpade.relaxation_pade, "RELAX", (math.inf,), "need finite t, got inf"),
    (mlpade.relaxation_pade, "RELAX", (math.nan, "standard"), "need finite t, got nan"),
    (mlpade.two_term_exact, "TWO", (-math.inf,), "need finite t, got -inf"),
    (mlpade.relaxation_exact, "RELAX", (0.0,), "solution is singular at the origin; need t > 0, got 0.0"),
    (mlpade.two_term_pade, "TWO", (-1.0,), "solution is singular at the origin; need t > 0, got -1.0"),
    (mlpade.relaxation_pade, "RELAX", (1.0, "classical"),
     "prefactor must be one of ('paper', 'standard'), got 'classical'"),
    # a subnormal t takes the general branch, which keeps its value where t^p
    # is finite and names the op, t and the power where it overflows
    (mlpade.relaxation_pade, "RELAX_HALF", (5e-324,), 2.538240300160582e+161),
    (mlpade.two_term_pade, "TWO_98", (5e-324,),
     mlpade.ResultOverflowError("two_term_pade: t**-0.98 at t=5e-324 overflows a double")),
    (mlpade.two_term_exact, "TWO_98", (5e-324,),
     mlpade.ResultOverflowError("two_term_exact: t**-0.98 at t=5e-324 overflows a double")),
    (mlpade.relaxation_exact, "RELAX_99", (5e-324,),
     mlpade.ResultOverflowError("relaxation_exact: t**-0.99 at t=5e-324 overflows a double")),
    (mlpade.relaxation_pade, "RELAX_01", (5e-324, "standard"),
     mlpade.ResultOverflowError("relaxation_pade: t**-0.99 at t=5e-324 overflows a double")),
    # lambda * t^alpha overflows to inf, where E(-x) is 0 in the limit
    (mlpade.relaxation_pade, "RELAX_STIFF", (1e300,), 0.0),
    (mlpade.relaxation_pade, "RELAX_STIFF", (1e300, "standard"), 0.0),
    (mlpade.relaxation_exact, "RELAX_STIFF", (1e300,), 0.0),
    # a refused approximant raises after the t test and before t^p is taken
    (mlpade.relaxation_pade, "RELAX_99", (5e-324,), mlpade.ConstructionError(
        "approximant is not positive and nonincreasing on [0, inf): need n0 > 0, n1 >= 0, "
        "d2 > 0 and n1 <= n0*d1, got (n0=0.9941622992160641, n1=0.0, d1=-393.5842866754888, "
        "d2=99.85063377681988); the diagonal approximant needs alpha <= 1/2")),
    (mlpade.two_term_pade, "TWO_DEGENERATE", (5e-324,), mlpade.ConstructionError(
        "coefficient denominator degenerate for alpha=9.999999994736442e-10, beta=0.040000001")),
]
ADMISSION_EDGES += [
    (mlpade.relaxation_pade, "RELAX_62", (t, prefactor), message)
    for t, message in (
        (-1.0, "solution is singular at the origin; need t > 0, got -1.0"),
        (math.nan, "need finite t, got nan"),
        (math.inf, "need finite t, got inf"),
    )
    for prefactor in ("paper", "standard")
]

# a numpy scalar or a 0-d array outside the domain gets the float's message
_N0 = "0.9357787209128731"
ADMISSION_EDGES += [
    (f, target, (kind(v),), message)
    for f, target, v, message in [
        (INV, "APPROX", -1.0, f"y=-1.0 outside (0, {_N0}]"),
        (INV, "APPROX", math.nan, f"y=nan outside (0, {_N0}]"),
        (INV, "APPROX", math.inf, f"y=inf outside (0, {_N0}]"),
        (INV, "APPROX", -math.inf, f"y=-inf outside (0, {_N0}]"),
        (mlpade.inv_pade, "P", -1.0, f"y=-1.0 outside (0, {_N0}]"),
        (mlpade.inv_pade, "P", math.nan, f"y=nan outside (0, {_N0}]"),
        (mlpade.inv_pade, "P", math.inf, f"y=inf outside (0, {_N0}]"),
        (mlpade.inv_pade, "P", -math.inf, f"y=-inf outside (0, {_N0}]"),
    ] + [
        (ode, spec, v, message)
        for ode, spec in (
            (mlpade.relaxation_pade, "RELAX"), (mlpade.relaxation_exact, "RELAX"),
            (mlpade.two_term_pade, "TWO"), (mlpade.two_term_exact, "TWO"),
        )
        for v, message in (
            (-1.0, "solution is singular at the origin; need t > 0, got -1.0"),
            (math.nan, "need finite t, got nan"),
            (math.inf, "need finite t, got inf"),
            (-math.inf, "need finite t, got -inf"),
        )
    ]
    for kind in (np.float64, np.float32, np.array)
]


@pytest.mark.parametrize(
    "f,target,args,want", ADMISSION_EDGES,
    ids=[f"{f.__name__}({t}, {', '.join(map(repr, a))})" for f, t, a, _ in ADMISSION_EDGES],
)
def test_admission_edges_keep_values_and_float_messages(f, target, args, want):
    if isinstance(want, float):
        assert _same_float(f(TARGETS[target], *args), want)
    else:
        error = type(want) if isinstance(want, Exception) else mlpade.DomainError
        with pytest.raises(error, match=f"^{re.escape(str(want))}$"):
            f(TARGETS[target], *args)
