"""Global rational (degree-2 Pade) approximation of the two-parameter
Mittag-Leffler function E_{alpha,beta}(-x) on [0, inf), its algebraic
inverse, a high-accuracy reference oracle, and rational solutions of two
Riemann-Liouville fractional relaxation equations.
"""

from .errors import (
    ConstructionError,
    DomainError,
    MLPadeError,
    NonConvergenceError,
    ParameterDomainError,
    ResultOverflowError,
)
from .fode import (
    RelaxationSpec,
    TwoTermSpec,
    relaxation_exact,
    relaxation_pade,
    two_term_exact,
    two_term_pade,
)
from .harness import (
    DEFAULT_GRID,
    ErrorReport,
    emit_report,
    error_scan,
    format_shortest,
    inverse_error_scan,
)
from .inverse import inv_pade, inv_pade_from_approx
from .pade import RationalApprox, build_approx, eval_approx
from .params import GridSpec, MLParams, Regime, classify
from .reference import ml_oracle

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters
    "MLParams",
    "Regime",
    "classify",
    # approximant
    "RationalApprox",
    "build_approx",
    "eval_approx",
    # inverse
    "inv_pade",
    "inv_pade_from_approx",
    # reference oracle
    "ml_oracle",
    # fractional ODE solutions
    "RelaxationSpec",
    "TwoTermSpec",
    "relaxation_exact",
    "relaxation_pade",
    "two_term_exact",
    "two_term_pade",
    # error-scan harness
    "GridSpec",
    "ErrorReport",
    "DEFAULT_GRID",
    "error_scan",
    "inverse_error_scan",
    "emit_report",
    "format_shortest",
    # exceptions
    "MLPadeError",
    "DomainError",
    "ParameterDomainError",
    "NonConvergenceError",
    "ConstructionError",
    "ResultOverflowError",
]
