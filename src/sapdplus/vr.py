"""Variance-reduced inner solver: recursive gradient estimators with
periodic large-batch refreshes, for finite-sum couplings.

Per iteration k (theta fixed to 1 by the parameter rule):

    y_{k+1} = prox_{sigma g}(y_k + sigma * s_k)
    u_k     = large-batch x-gradient at (x_k, y_{k+1})        if k % q == 0
              u_{k-1} + batch(x_k, y_{k+1}) - batch(x_{k-1}, y_k)  otherwise
    v_k     = u_k + grad_h(x_k)
    x_{k+1} = prox_{tau f}(x_k - tau * v_k)
    w_{k+1} = large-batch y-gradient at (x_{k+1}, y_{k+1})    if (k+1) % q == 0
              w_k + batch(x_{k+1}, y_{k+1}) - batch(x_k, y_k)     otherwise
    s_{k+1} = (1 + theta) w_{k+1} - theta w_k

with w_0 a large-batch draw at (x_0, y_0) and s_0 = w_0.  The recursion
evaluates the same batch at both point pairs, in one call per step and axis:
the batch oracle's two-point difference (FiniteSumSpec), or two batch calls
for an oracle without one.  u_k estimates the mean of the
component x-gradients only: the shared term grad_h (ProblemSpec) depends on
x alone, so it would cancel in the batch difference, and it is added once,
at x_k; in a SAPD+ stage it carries the stage's shift too.  Oracle cost is
counted in component evaluations, one single-sample draw each
(VrParams.oracle_calls).  The iteration is the one inner loop of sapd.py;
this module supplies its SPIDER estimator of v_k and s_{k+1}.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .problem import FiniteSumSpec, ProblemSpec
from .sapd import SapdRunResult, _draws, _inner_loop
# kept for perfbench/tracing.py, whose swap list names vr._guard; the inner
# loop looks _guard up in sapd, so that swap times nothing
from .sapd import _guard  # noqa: F401


@dataclass(frozen=True)
class VrParams:
    """Variance-reduction configuration (theta = 1 per the parameter rule)."""

    tau: float
    sigma: float
    b: int
    b_x: int
    b_y: int
    q: int
    n_inner: int
    mu_x: float
    # class constants, not fields, since the rule fixes both; with rho = 1
    # the output is the plain mean of the iterates
    theta = 1.0
    rho = 1.0

    def __post_init__(self):
        if self.tau <= 0 or self.sigma <= 0:
            raise ConfigurationError("tau, sigma must be positive")
        if min(self.b, self.b_x, self.b_y, self.q, self.n_inner) < 1:
            raise ConfigurationError("b, b_x, b_y, q, n_inner must be >= 1")
        if self.b < max(self.b_x, self.b_y):
            # 3: past this method and the __init__ that dataclass generates
            warnings.warn("large batch b below the small batches b_x/b_y",
                          stacklevel=3)

    def oracle_calls(self, iterations: int) -> tuple:
        """(x_calls, y_calls) of an inner run of `iterations` iterations, in
        single-sample draws: ceil(N/q) x-refreshes and floor(N/q) y-refreshes
        of b draws each, 2 b_x (x) or 2 b_y (y) draws per recursion step, and
        the initial y-batch of b draws.  These count component evaluations:
        a recursion step draws its b_x (b_y) indices once, so it is not the
        number of random values a stage draws (_spider_gradient sizes its own
        blocks)."""
        n, q, b = iterations, self.q, self.b
        refresh_x, refresh_y = -(-n // q), n // q
        return (refresh_x * b + (n - refresh_x) * 2 * self.b_x,
                b + refresh_y * b + (n - refresh_y) * 2 * self.b_y)

    def draws(self, iterations: int, oracle_batch: int) -> int:
        """Single-sample draws of an inner run: oracle_calls, which counts in
        draws already, whatever the problem's oracle_batch."""
        return sum(self.oracle_calls(iterations))


def _difference_of(batch, dim):
    """The two-point difference of a batch oracle: its own fused one
    (FiniteSumSpec), or else two calls whose difference goes into an array
    of dim entries made here, once per stage."""
    fused = getattr(batch, "difference", None)
    if fused is not None:
        return fused
    subtract, out = np.subtract, np.empty(dim)

    def difference(idx, x, y, x_at, y_at):
        return subtract(batch(idx, x, y), batch(idx, x_at, y_at), out)

    return difference


def _spider_gradient(fs: FiniteSumSpec, p: ProblemSpec, params: VrParams, rng):
    """The SPIDER estimator as the closures (first, primal, dual) of one
    stage; each recursion step reuses the point of the previous call on its
    axis, which the inner loop keeps intact for one iteration.  The
    x-recursion runs on fs's component part u_k; the grad_h of p is added
    at x_k alone.  Its batches are slices of one _draws of indices: b for
    w_0, then per iteration the x-batch before the y-batch.
    A recursion step draws its batch once and evaluates it at two points,
    in one call of _difference_of's difference, so the stage draws fewer
    indices than VrParams.oracle_calls counts.  u and w
    each alternate between two arrays, so a recursion step never writes
    into the estimate it reads (sapd module docstring)."""
    batch_x, batch_y, grad_h = fs.batch_grad_x, fs.batch_grad_y, p.grad_h
    b, b_x, b_y, q = params.b, params.b_x, params.b_y, params.q

    def size_of(k):
        return (b if k % q == 0 else b_x) + (b if (k + 1) % q == 0 else b_y)

    take = _draws(fs.sample, rng, b, size_of, params.n_inner)
    subtract, multiply, add = np.subtract, np.multiply, np.add
    two = np.array(2.0)  # 0-d coefficient (sapd module docstring)
    n, m = p.n, p.m
    u_out, u_spare, v = (np.empty(n) for _ in range(3))
    w_out, w_spare, two_w, s = (np.empty(m) for _ in range(4))
    diff_x, diff_y = _difference_of(batch_x, n), _difference_of(batch_y, m)
    u = w = x_at = y_at = xw_at = yw_at = None
    k_x, k_y = 0, 1  # k on the x-axis, k + 1 on the y-axis

    def first(x, y):
        nonlocal w, xw_at, yw_at
        w = batch_y(take(b), x, y)
        xw_at, yw_at = x, y
        return w

    def primal(x, y):
        nonlocal u, x_at, y_at, k_x, u_out, u_spare
        if k_x % q == 0:
            u = batch_x(take(b), x, y)
        else:
            add(u, diff_x(take(b_x), x, y, x_at, y_at), u_out)
            u, u_out, u_spare = u_out, u_spare, u_out
        k_x += 1
        x_at, y_at = x, y
        if grad_h is None:
            return u
        add(u, grad_h(x), v)
        return v

    def dual(x, y):
        nonlocal w, xw_at, yw_at, k_y, w_out, w_spare
        if k_y % q == 0:
            w_new = batch_y(take(b), x, y)
        else:
            add(w, diff_y(take(b_y), x, y, xw_at, yw_at), w_out)
            w_new, w_out, w_spare = w_out, w_spare, w_out
        k_y += 1
        # s = (1 + theta) w - theta w_k at theta = 1
        multiply(two, w_new, two_w)
        subtract(two_w, w, s)
        w, xw_at, yw_at = w_new, x, y
        return s

    return first, primal, dual


def vr_sapd_run(fs: FiniteSumSpec, p: ProblemSpec, params: VrParams, x0, y0,
                rng) -> SapdRunResult:
    """Run the variance-reduced inner solver on a finite-sum coupling.

    fs supplies the component batch gradients; p supplies the shared term
    grad_h (in a SAPD+ stage, with the stage's shift) and the prox maps.
    Batch indices are drawn with replacement from a single rng stream, in
    blocks of whole iterations: the initial y-batch, then per iteration the
    x batch before the y batch.  Every batch is drawn that way, so a large
    batch is an estimate at any size: at b = n_comp it leaves about 1/e of
    the components out.  A b above n_comp warns.
    """
    if params.b > fs.n_comp:
        warnings.warn("large batch exceeds component count; every batch is "
                      "drawn with replacement, so this one repeats components "
                      "and is not the full gradient", stacklevel=2)
    return _inner_loop(p, params, _spider_gradient(fs, p, params, rng), x0, y0)
