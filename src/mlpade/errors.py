"""Exception hierarchy shared by all mlpade modules: one class per outcome a
caller can act on. The CLI exits 3 on a DomainError and 4 on any other."""


class MLPadeError(Exception):
    """Base class for all mlpade errors."""


class DomainError(MLPadeError, ValueError):
    """An argument lies outside the domain of the operation."""


class ParameterDomainError(DomainError):
    """(alpha, beta) lies outside the complete-monotonicity region."""


class NonConvergenceError(MLPadeError, ArithmeticError):
    """A series or a bisection gave up within its budget."""


class ConstructionError(MLPadeError, ArithmeticError):
    """An approximant cannot be built: its matching conditions are degenerate,
    rounding would swamp its coefficients, they overflow, or they break the
    invariant n0 > 0, n1 >= 0, d2 > 0, n1 <= n0*d1 that makes
    (n0 + n1*x)/(1 + d1*x + d2*x^2) positive and nonincreasing on [0, inf)."""


class ResultOverflowError(MLPadeError, OverflowError):
    """The exact result lies beyond the largest finite double."""
