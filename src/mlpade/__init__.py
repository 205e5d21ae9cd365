"""Global rational (degree-2 Pade) approximation of the two-parameter
Mittag-Leffler function E_{alpha,beta}(-x) on [0, inf), its algebraic
inverse, a high-accuracy reference oracle, and rational solutions of two
Riemann-Liouville fractional relaxation equations.
"""

from .errors import (
    BracketError,
    ConstructionError,
    DegenerateSystemError,
    DomainError,
    MLPadeError,
    NonConvergenceError,
    ParameterDomainError,
    PoleError,
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
    GridSpec,
    emit_report,
    error_scan,
    format_shortest,
    inverse_error_scan,
)
from .inverse import inv_domain, inv_pade, inv_pade_from_approx
from .pade import RationalApprox, build_approx, eval_approx
from .params import MLParams, Regime, classify
from .reference import ml_asymptotic, ml_closed_form, ml_oracle, ml_taylor

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
    "inv_domain",
    "inv_pade",
    "inv_pade_from_approx",
    # reference oracle
    "ml_taylor",
    "ml_asymptotic",
    "ml_closed_form",
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
    "PoleError",
    "NonConvergenceError",
    "DegenerateSystemError",
    "ConstructionError",
    "ResultOverflowError",
    "BracketError",
]
