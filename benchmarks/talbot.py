"""Independent reference for E_{a,b}(-x): numerical Laplace inversion.

E_{a,b}(-x) = T^(1-b) f(T) with T = x^(1/a), where f is the inverse Laplace
transform of s^(a-b) / (s^a + 1). f is evaluated with mpmath's Talbot
contour at 30 digits, a method the package's oracle does not use. One point
costs tens of milliseconds, so the benchmark checks a seeded sample, outside
the timed region, after validating this reference against the erfcx and exp
closed forms. Where such a closed form exists it is the reference itself,
evaluated in mpmath: at 30 digits Talbot cannot resolve exp(-x) far below
1e-30, which a = b = 1 reaches at x > 70.
"""

import math

import mpmath

DPS = 30


def ml_talbot(alpha, beta, x):
    """E_{alpha,beta}(-x) by Talbot inversion, as a float."""
    with mpmath.workdps(DPS):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        if x == 0.0:
            return float(mpmath.rgamma(b))
        t = mpmath.mpf(x) ** (1 / a)
        f = mpmath.invertlaplace(lambda s: s ** (a - b) / (s**a + 1), t, method="talbot")
        return float(t ** (1 - b) * f)


def _closed_form(alpha, beta, x):
    with mpmath.workdps(DPS):
        xm = mpmath.mpf(x)
        erfcx = mpmath.exp(xm * xm) * mpmath.erfc(xm)
        value = {
            (0.5, 1.0): lambda: erfcx,
            (0.5, 1.5): lambda: (1 - erfcx) / xm,
            (0.5, 0.5): lambda: 1 / mpmath.sqrt(mpmath.pi) - xm * erfcx,
            (1.0, 1.0): lambda: mpmath.exp(-xm),
            (1.0, 2.0): lambda: (1 - mpmath.exp(-xm)) / xm,
        }[(alpha, beta)]()
        return float(value)


CLOSED_FORM_PAIRS = ((0.5, 1.0), (0.5, 1.5), (0.5, 0.5), (1.0, 1.0), (1.0, 2.0))


def validate(rng):
    """Talbot against every closed form at seeded x; returns the failures."""
    bad = []
    for alpha, beta in CLOSED_FORM_PAIRS:
        for x in 10.0 ** rng.uniform(-2.0, 1.5, 2):
            x = float(x)
            want, got = _closed_form(alpha, beta, x), ml_talbot(alpha, beta, x)
            if abs(got - want) > 1e-13 * max(1.0, abs(want)):
                bad.append((alpha, beta, x, got, want))
    return bad


def beyond_crossover(alpha, x):
    """The oracle's asymptotic crossover, as in mlpade.reference: x >= 30 or
    x^(1/alpha) >= 40."""
    return x >= 30.0 or (x > 0.0 and math.log(x) / alpha >= math.log(40.0))


def oracle_tolerance(alpha, x, value):
    """README accuracy of the oracle: 1e-10 absolute below the crossover,
    1e-6 relative beyond it."""
    return 1e-6 * abs(value) if beyond_crossover(alpha, x) else 1e-10


def agrees(alpha, beta, x, value, slack):
    """True when `value` matches the reference at x to README accuracy plus
    `slack`: the closed form where there is one, else Talbot."""
    exact = (alpha, beta) in CLOSED_FORM_PAIRS and x > 0.0
    ref = _closed_form(alpha, beta, x) if exact else ml_talbot(alpha, beta, x)
    return abs(value - ref) <= oracle_tolerance(alpha, x, ref) + slack
