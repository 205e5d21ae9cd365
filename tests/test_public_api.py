"""The package's top-level names: `ml_oracle` is the reference layer's one
entry point there, and its one-point views live in `mlpade.reference`."""

import mlpade
import mlpade.reference

PUBLIC = {
    "__version__",
    "MLParams", "Regime", "classify",
    "RationalApprox", "build_approx", "eval_approx",
    "inv_pade", "inv_pade_from_approx",
    "ml_oracle",
    "RelaxationSpec", "TwoTermSpec",
    "relaxation_exact", "relaxation_pade", "two_term_exact", "two_term_pade",
    "GridSpec", "ErrorReport", "DEFAULT_GRID",
    "error_scan", "inverse_error_scan", "emit_report", "format_shortest",
    "MLPadeError", "DomainError", "ParameterDomainError",
    "NonConvergenceError", "ConstructionError", "ResultOverflowError",
}


def test_the_public_names_are_the_29():
    assert len(mlpade.__all__) == len(PUBLIC) == 29
    assert set(mlpade.__all__) == PUBLIC
    assert all(hasattr(mlpade, name) for name in PUBLIC)


def test_the_one_point_views_live_in_the_reference_module():
    for name in ("ml_taylor", "ml_asymptotic", "ml_closed_form"):
        assert callable(getattr(mlpade.reference, name))
        assert not hasattr(mlpade, name)


def test_the_parity_recorder_covers_every_float_entry_point():
    import parity

    ops = set()
    for op, args, outcome in parity.records(draws=2):
        ops.add(op)
        kind, _, rest = outcome.partition(" ")
        assert kind.endswith("Error:") or rest, (op, args, outcome)
    assert ops == set(parity.ENTRY_POINTS) | set(parity.ONE_POINT_VIEWS) | set(parity.SPECIAL_FUNCTIONS)
    assert set(parity.ENTRY_POINTS) <= set(mlpade.__all__)
    assert all(callable(getattr(mlpade.reference, view)) for view in parity.ONE_POINT_VIEWS)
