"""Derive the frozen polynomial tables of the closed forms and print them as
`mlpade.special` and `mlpade.reference` hold them, each after a comment line
with its truncation error:

    python tests/make_erfcx_coefficients.py

* `_WEIDEMAN` (special): erfcx(x) = (2p/(L+x) + 1/sqrt(pi))/(L+x) is the
  form of J. A. C. Weideman, "Computation of the complex error function",
  SIAM J. Numer. Anal. 31 (1994), at N = 40, L = sqrt(N/sqrt(2)), with p a
  polynomial in Z = (L-x)/(L+x). For x in [0, 26], Z lies in
  [(L-26)/(L+26), 1]; with u = (Z - b)/a mapping that range onto [-1, 1],
  u = (L - c*x)/(L+x), c = 1 + L/13, and x = L(1-u)/(u+c). p is taken from
  erfcx itself, p(u) = (erfcx(x)(L+x) - 1/sqrt(pi))(L+x)/2, and the table is
  its Chebyshev interpolant (L. N. Trefethen, Approximation Theory and
  Approximation Practice, SIAM 2013) cut at degree 23, in monomial form in u.
* `_E12_NEAR` (reference): the Taylor polynomial sum_{k<=15} (-x)^k/(k+1)!
  of E_{1,2}(-x) = (1 - e^-x)/x, for x < 0.5. Its series alternates with
  falling terms, so its error is below its first omitted term at x = 0.5.
* `_EXP_NEG_R` (reference): e^-r for |r| <= 0.347 (ln(2)/2 = 0.3466), the
  Chebyshev interpolant in r/0.347 cut at degree 13, in monomial form in r.

A Chebyshev table's error is below its tail, the sum of the magnitudes of
the coefficients it drops. Everything is computed at 50 digits and rounded to
the nearest double; a table lists its highest power first, for Horner's rule.
L and c are the doubles `special.py` computes. `tests/test_special.py`
asserts that each derivation equals the frozen table, written as printed.
"""

import math

import mpmath

DIGITS = 50
NODES = 64  # Chebyshev points of each interpolant, far past its cut
WEIDEMAN_L = math.sqrt(40.0 / math.sqrt(2.0))
WEIDEMAN_C = 1.0 + WEIDEMAN_L / 13.0
EXP_HALF_WIDTH = 0.347


def chebyshev(f) -> list:
    """The Chebyshev coefficients c_0..c_(NODES-1) of f on [-1, 1], from its
    values at the NODES Chebyshev points of the first kind."""
    theta = [mpmath.pi * (j + mpmath.mpf(0.5)) / NODES for j in range(NODES)]
    fs = [f(mpmath.cos(t)) for t in theta]
    c = [2 * mpmath.fsum(v * mpmath.cos(k * t) for v, t in zip(fs, theta)) / NODES
         for k in range(NODES)]
    c[0] /= 2
    return c


def monomial(c: list, degree: int, scale=1) -> list:
    """sum_{k<=degree} c_k T_k(u) as the coefficients of u'^0..u'^degree, where
    u = u'/scale."""
    out = [mpmath.mpf(0)] * (degree + 1)
    t_prev, t = [1], [0, 1]  # T_k and T_(k+1), exact integer coefficients
    for k in range(degree + 1):
        for i, v in enumerate(t_prev):
            out[i] += c[k] * v
        # T_(k+2) = 2u T_(k+1) - T_k
        t_prev, t = t, [2 * a - b for a, b in zip([0] + t, t_prev + [0, 0])]
    return [v / mpmath.mpf(scale) ** i for i, v in enumerate(out)]


def _cut(c: list, degree: int, scale=1) -> tuple:
    """(the table, highest power first, as doubles; its tail)"""
    table = tuple(float(v) for v in reversed(monomial(c, degree, scale)))
    return table, float(mpmath.fsum(abs(v) for v in c[degree + 1:]))


def erfcx_coefficients() -> tuple:
    """(`_WEIDEMAN`, its tail)"""
    with mpmath.workdps(DIGITS):
        big_l, c = mpmath.mpf(WEIDEMAN_L), mpmath.mpf(WEIDEMAN_C)

        def p(u):
            x = big_l * (1 - u) / (u + c)
            erfcx = mpmath.exp(x * x) * mpmath.erfc(x)
            return (erfcx * (big_l + x) - 1 / mpmath.sqrt(mpmath.pi)) * (big_l + x) / 2

        return _cut(chebyshev(p), 23)


def e12_near_coefficients() -> tuple:
    """(`_E12_NEAR`, its first omitted term at x = 0.5)"""
    table = tuple((-1) ** k / math.factorial(k + 1) for k in range(15, -1, -1))
    return table, 0.5**16 / math.factorial(17)


def exp_neg_coefficients() -> tuple:
    """(`_EXP_NEG_R`, its tail)"""
    with mpmath.workdps(DIGITS):
        h = mpmath.mpf(EXP_HALF_WIDTH)
        return _cut(chebyshev(lambda u: mpmath.exp(-h * u)), 13, h)


# each frozen table's name, its module and its derivation
TABLES = {
    "_WEIDEMAN": ("special", erfcx_coefficients),
    "_E12_NEAR": ("reference", e12_near_coefficients),
    "_EXP_NEG_R": ("reference", exp_neg_coefficients),
}


def source(name: str, coefs: tuple) -> str:
    """The table as its module writes it, as many coefficients a line as fit
    in 99 columns."""
    lines = [f"{name} = (", "   "]
    for c in coefs:
        if len(lines[-1]) + len(f" {c!r},") > 99:
            lines.append("   ")
        lines[-1] += f" {c!r},"
    return "\n".join(lines + [")"])


if __name__ == "__main__":
    for name, (module, derive) in TABLES.items():
        coefs, tail = derive()
        print(f"# {module}.{name}: degree {len(coefs) - 1}, truncation error below {tail:.2g}")
        print(source(name, coefs))
