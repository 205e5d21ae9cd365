"""E_{a,b}(-x) = T^(1-b) f(T), T = x^(1/a), with f the inverse Laplace transform
of s^(a-b) / (s^a + 1) by mpmath's Talbot method at 30 digits: a reference
independent of the package's oracle. One point costs tens of milliseconds."""

import mpmath


def ml_talbot(alpha, beta, x):
    with mpmath.workdps(30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        t = mpmath.mpf(x) ** (1 / a)
        f = mpmath.invertlaplace(lambda s: s ** (a - b) / (s**a + 1), t, method="talbot")
        return float(t ** (1 - b) * f)
