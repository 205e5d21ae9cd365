"""E_{a,b}(-x) = T^(1-b) f(T), T = x^(1/a), with f the inverse Laplace transform
of s^(a-b) / (s^a + 1) by mpmath's Talbot method: a reference independent of
the package's oracle. It works at 30 digits plus the decimal digits of
Gamma(b): E_{a,b}(-x) is at most 1/Gamma(b), so its Talbot terms, of order 1,
cancel to about 1/Gamma(b) of their size, and 30 fixed digits return
rounding (1.3e-206 at (0.666, 150, 1e-3), where E is 2.6e-261). One point
costs tens of milliseconds at b <= 80 and about half a second at b = 100."""

import math

import mpmath


def working_digits(beta):
    return 30 + max(0, math.ceil(math.lgamma(beta) / math.log(10)))


def ml_talbot(alpha, beta, x):
    with mpmath.workdps(working_digits(beta)):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        t = mpmath.mpf(x) ** (1 / a)
        f = mpmath.invertlaplace(lambda s: s ** (a - b) / (s**a + 1), t, method="talbot")
        return float(t ** (1 - b) * f)
