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
    """An approximant cannot be built: its coefficients overflow, or they
    break the invariant n0 > 0, n1 >= 0, d2 > 0, n1 <= n0*d1 that makes
    (n0 + n1*x)/(1 + d1*x + d2*x^2) positive and nonincreasing on [0, inf)."""


class ResultOverflowError(MLPadeError, OverflowError):
    """The exact result lies beyond the largest finite double."""


class BracketError(MLPadeError, ArithmeticError):
    """Bisection could not bracket a root (non-monotone data)."""
