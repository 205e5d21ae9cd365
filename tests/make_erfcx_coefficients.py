"""Derive the coefficients of `mlpade.special._WEIDEMAN` and print them as
`special.py` holds them:

    python tests/make_erfcx_coefficients.py

They are those of J. A. C. Weideman, "Computation of the complex error
function", SIAM J. Numer. Anal. 31 (1994), for N = 40, M = 2N and
L = sqrt(N/sqrt(2)): with t_k = L*tan(k*pi/(2M)) and
f_k = exp(-t_k^2)*(L^2 + t_k^2) for k = -M+1..M-1, f = [0, f_(-M+1), ...,
f_(M-1)] rotated by M, a_j = sum_m f_m cos(2*pi*j*m/(2M))/(2M), and
erfcx(x) = (2*p(Z)/(L+x) + 1/sqrt(pi))/(L+x), Z = (L-x)/(L+x), with
p(Z) = sum_{n=0}^{N-1} a_(n+1) Z^n. The a_j are computed at 40 digits and
rounded to the nearest double; the table lists a_N first, for Horner's rule.
`tests/test_special.py` asserts that the derivation equals the frozen table.
"""

import mpmath

N = 40


def weideman_coefficients() -> tuple:
    """(a_N, ..., a_1) as doubles, highest power of Z first."""
    with mpmath.workdps(40):
        m = 2 * N
        big_l = mpmath.sqrt(N / mpmath.sqrt(2))
        f = [mpmath.mpf(0)]
        for k in range(-m + 1, m):
            t = big_l * mpmath.tan(k * mpmath.pi / (2 * m))
            f.append(mpmath.exp(-t * t) * (big_l * big_l + t * t))
        f = f[m:] + f[:m]
        a = [
            mpmath.fsum(fm * mpmath.cos(mpmath.pi * j * i / m) for i, fm in enumerate(f)) / (2 * m)
            for j in range(1, N + 1)
        ]
    return tuple(float(v) for v in reversed(a))


def source(coefs: tuple) -> str:
    """The table as `special.py` writes it, as many coefficients a line as
    fit in 99 columns."""
    lines = ["_WEIDEMAN = (", "   "]
    for c in coefs:
        if len(lines[-1]) + len(f" {c!r},") > 99:
            lines.append("   ")
        lines[-1] += f" {c!r},"
    return "\n".join(lines + [")"])


if __name__ == "__main__":
    print(source(weideman_coefficients()))
