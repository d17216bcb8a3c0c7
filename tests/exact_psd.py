"""An exact test of the certificate matrix, for the tests.

`exact_g` builds the 5x5 G of `params._assemble_g` over `fractions.Fraction`
at a float tuple and float constants.  Every float is a rational, so its
entries are the exact values of the printed formulas at those floats, free
of the rounding of the float matrix that `certify` decomposes.  `is_psd`
decides exactly whether a symmetric rational matrix is positive
semidefinite: it is iff all its principal minors are >= 0, 31 of them for
a 5x5.  They are not part of the package.
"""

from fractions import Fraction
from itertools import combinations


def exact_g(tau, sigma, theta, rho, alpha, mu_x, s, c):
    """G at the float tuple, with bar(L)_xx = l_xx + mu_x + gamma, in exact
    rationals (a list of rows)."""
    tau, sigma, theta, rho, alpha, mu_x, l_xx, l_yx, l_yy, gamma, mu_y = map(
        Fraction, (tau, sigma, theta, rho, alpha, mu_x, s.l_xx, s.l_yx, s.l_yy,
                   c.gamma, c.mu_y))
    off = theta / rho - 1
    g = [[Fraction(0)] * 5 for _ in range(5)]
    g[0][0] = (mu_x * tau + (rho - 1)) / (tau * rho)
    g[1][1] = (rho - 1) / (sigma * rho) + mu_y
    g[1][2] = g[2][1] = off * l_yx
    g[1][3] = g[3][1] = off * l_yy
    g[2][2] = 1 / tau - (l_xx + mu_x + gamma)
    g[3][3] = 1 / sigma - alpha
    g[2][4] = g[4][2] = -(theta / rho) * l_yx
    g[3][4] = g[4][3] = -(theta / rho) * l_yy
    g[4][4] = alpha / rho
    return g


def shifted(g, rel):
    """g + rel max|g_ij| I, with rel a Fraction."""
    shift = rel * max(abs(v) for row in g for v in row)
    return [[v + shift if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(g)]


def _det(m):
    """The determinant of a square rational matrix, by elimination."""
    m = [row[:] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return det


def is_psd(g) -> bool:
    """Whether the symmetric rational matrix g is positive semidefinite:
    every principal minor is >= 0."""
    n = len(g)
    return all(_det([[g[i][j] for j in rows] for i in rows]) >= 0
               for size in range(1, n + 1) for rows in combinations(range(n), size))
