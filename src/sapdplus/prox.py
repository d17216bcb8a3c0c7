"""Proximal operators and projections used by the solvers and the DRO benchmark.

All operators take the point first and the prox step second, and their
results are functions of their arguments alone.
"""

import math

import numpy as np

from .errors import ConfigurationError
from .problem import replica_safe

# bound at import: a direct call skips the operator's dispatch (see the sapd
# module docstring)
_add = np.add


@replica_safe
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
    deterministic (ties resolved by the cumulative rule).  It takes the last
    index where the rule holds; in floating point the rule is not monotone
    in j, so counting the indices where it holds can pick a different one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ConfigurationError("project_simplex expects a nonempty vector")
    # a finite lam means a finite sum, so no NaN or +-inf in v
    # the ufunc reductions v.sum() and v.min() call, without their wrappers
    lam = (1.0 - np.add.reduce(v)) / v.size
    if math.isfinite(lam) and np.minimum.reduce(v) + lam > 0:
        return v + lam
    ascending = np.sort(v)
    # NaN sorts last and -inf/+inf sort to the ends, so the ends decide
    if not (math.isfinite(ascending[0]) and math.isfinite(ascending[-1])):
        raise ConfigurationError("project_simplex expects finite input")
    u = ascending[::-1]
    cssv = np.add.accumulate(u)  # np.cumsum's kernel, without its wrapper
    j = np.arange(1, v.size + 1)
    # j = 1 always qualifies: u_1 + (1 - u_1) = 1 > 0
    rho = np.nonzero(u + (1.0 - cssv) / j > 0)[0][-1]
    lam = (1.0 - cssv[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _project_simplex_rows(v):
    """project_simplex of every row of the 2-D array v, bit for bit, into a
    fresh array.  The all-active check takes its sums and minima on all rows
    at once (the reductions along axis 1 add and compare each row as the
    1-D ones do); each row's lam is then the Python-float arithmetic of
    project_simplex, and an active row is shifted by it into its output
    row, with no broadcast of an (R, 1) shift: on (4, 1000) rows
    w + lam[:, None] took 4.7 us against 2.5 us for an add of two arrays
    of that shape (timeit medians, numpy 2.4.6).  A row that fails the
    check goes through project_simplex itself."""
    size = v.shape[1]
    out = np.empty_like(v)
    sums, mins = np.add.reduce(v, axis=1).tolist(), np.minimum.reduce(v, axis=1).tolist()
    for r, (total, low) in enumerate(zip(sums, mins)):
        lam = (1.0 - total) / size
        if math.isfinite(lam) and low + lam > 0:
            _add(v[r], lam, out[r])
        else:
            out[r] = project_simplex(v[r])
    return out


def prox_quadratic_over_simplex(eta2, n_scale):
    """The prox map prox(v, step) of g(y) = (eta2/2)*||n_scale*y - 1||^2
    plus the simplex indicator.

    The quadratic has Hessian eta2*n_scale^2*I, so
        argmin_{y in simplex} g(y) + ||y - v||^2/(2*step)
    is the simplex projection of
        (v/step + eta2*n_scale*1) / (eta2*n_scale^2 + 1/step)
        = v/(1 + eta2*n_scale^2*step) + c*1,  c a constant.
    A shift by a multiple of the ones vector does not move a projection
    onto the simplex, so c is dropped and the projected point is one
    division of v; the projection agrees with the shifted form to rounding.
    The map keeps the divisor of the last step it saw as a 0-d array: an
    inner stage calls it with one step, and v / divisor then skips the
    Python float's conversion.  Both divide in float64 (NEP 50), so the
    result is that of v / (1 + eta2*n_scale^2*step), bit for bit.  One
    name holds the (step, divisor) pair, so calls on two threads never mix
    the two.  The map is replica_safe: a 2-D v projects row by row.
    """
    if eta2 <= 0 or n_scale < 1:
        raise ConfigurationError("need eta2 > 0 and n_scale >= 1")
    last = (None, None)

    def prox(v, step):
        nonlocal last
        last_step, divisor = last
        if step != last_step:
            if step <= 0:
                raise ConfigurationError("prox step must be positive")
            divisor = np.array(1.0 + eta2 * n_scale**2 * step)
            last = (step, divisor)
        w = v / divisor
        if w.ndim == 2:
            return _project_simplex_rows(w)
        return project_simplex(w)

    return replica_safe(prox)
