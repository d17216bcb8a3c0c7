"""Proximal operators and projections used by the solvers and the DRO benchmark.

All operators take the point first and the prox step second, and are pure
functions of their arguments.
"""

import math

import numpy as np

from .errors import ConfigurationError


def prox_zero(v, step):
    """Prox of f = 0: the identity."""
    return np.asarray(v, dtype=float)


def project_simplex(v):
    """Euclidean projection onto the unit simplex {y >= 0, sum(y) = 1}.

    All-active check first, in O(d): with lam = (1 - sum(v))/d, if
    min(v) + lam > 0 every coordinate stays active and the projection is
    v + lam.  np.sum adds pairwise, so this lam can differ from the sorted
    path's in the last bits; the two projections agree to rounding.

    Otherwise sort-then-threshold: with u the coordinates of v in
    decreasing order, the active set size is the largest j with
    u_j + (1 - sum_{i<=j} u_i)/j > 0, and the projection is
    max(v + lam, 0) for the corresponding shift lam.  O(d log d),
    deterministic (ties resolved by the cumulative rule).  When the rule
    holds at the last index, the projection is v + lam with lam computed
    exactly as the general path would.  The general path takes the last
    index where the rule holds; in floating point the rule is not monotone
    in j, so counting the indices where it holds can pick a different one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ConfigurationError("project_simplex expects a nonempty vector")
    # a finite lam means a finite sum, so no NaN or +-inf in v
    lam = (1.0 - v.sum()) / v.size
    if math.isfinite(lam) and v.min() + lam > 0:
        return v + lam
    ascending = np.sort(v)
    # NaN sorts last and -inf/+inf sort to the ends, so the ends decide
    if not (math.isfinite(ascending[0]) and math.isfinite(ascending[-1])):
        raise ConfigurationError("project_simplex expects finite input")
    u = ascending[::-1]
    cssv = np.add.accumulate(u)  # np.cumsum's kernel, without its wrapper
    lam = (1.0 - cssv[-1]) / v.size
    if u[-1] + lam > 0:
        return v + lam
    j = np.arange(1, v.size + 1)
    # j = 1 always qualifies: u_1 + (1 - u_1) = 1 > 0
    rho = np.nonzero(u + (1.0 - cssv) / j > 0)[0][-1]
    lam = (1.0 - cssv[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def prox_quadratic_over_simplex(v, step, eta2, n_scale):
    """Prox of g(y) = (eta2/2)*||n_scale*y - 1||^2 plus the simplex indicator.

    The quadratic has Hessian eta2*n_scale^2*I, so
        argmin_{y in simplex} g(y) + ||y - v||^2/(2*step)
    reduces to a simplex projection of the shifted point
        (v/step + eta2*n_scale*1) / (eta2*n_scale^2 + 1/step).
    """
    if step <= 0:
        raise ConfigurationError("prox step must be positive")
    if eta2 <= 0 or n_scale < 1:
        raise ConfigurationError("need eta2 > 0 and n_scale >= 1")
    v = np.asarray(v, dtype=float)
    shifted = (v / step + eta2 * n_scale) / (eta2 * n_scale**2 + 1.0 / step)
    return project_simplex(shifted)
