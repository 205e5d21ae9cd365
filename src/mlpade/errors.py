"""Exception hierarchy shared by all mlpade modules."""


class MLPadeError(Exception):
    """Base class for all mlpade errors."""


class DomainError(MLPadeError, ValueError):
    """An argument lies outside the domain of the operation."""


class ParameterDomainError(DomainError):
    """(alpha, beta) lies outside the complete-monotonicity region."""


class PoleError(DomainError):
    """Gamma evaluated at a nonpositive integer."""


class NonConvergenceError(MLPadeError, ArithmeticError):
    """A series failed to converge within the configured term budget."""


class DegenerateSystemError(MLPadeError, ArithmeticError):
    """The coefficients' matching conditions are degenerate beyond tolerance."""


class ConstructionError(MLPadeError, ArithmeticError):
    """A rational approximant violates a construction invariant
    (e.g. its denominator has a root on the nonnegative axis)."""


class BranchError(MLPadeError, ArithmeticError):
    """Root selection for the inverse is ambiguous: both roots of its
    quadratic are nonnegative."""


class ResultOverflowError(MLPadeError, OverflowError):
    """The exact result lies beyond the largest finite double."""


class BracketError(MLPadeError, ArithmeticError):
    """Bisection could not bracket a root (non-monotone data)."""
