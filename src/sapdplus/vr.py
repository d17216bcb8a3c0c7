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
evaluates the same batch at both point pairs.  u_k estimates the mean of the
component x-gradients only: the shared term grad_h (FiniteSumSpec) depends
on x alone, so it would cancel in the batch difference, and it is added
once, at x_k.  Oracle cost is counted in single-sample draws.  The iteration
is the one inner loop of sapd.py; this module supplies its SPIDER estimator
of v_k and s_{k+1}.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .problem import FiniteSumSpec, ProblemSpec
from .sapd import SapdRunResult, _Draws, _inner_loop
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
            warnings.warn("large batch b below the small batches b_x/b_y",
                          stacklevel=2)


class _SpiderGradient:
    """The SPIDER estimator; each recursion step reuses the point of the
    previous call on its axis.  The x-recursion runs on the component part
    u_k; grad_h, bound once per stage, is added at x_k alone.  Its batches
    are slices of one _Draws of indices: b for w_0, then per iteration the
    x-batch before the y-batch.
    A recursion step draws its batch once and evaluates it twice, so the
    stage draws fewer indices than inner_oracle_calls counts."""

    def __init__(self, fs: FiniteSumSpec, params: VrParams, rng):
        self.fs, self.params, self.grad_h = fs, params, fs.grad_h
        self.two = np.array(2.0)  # 0-d coefficient (sapd module docstring)
        b, b_x, b_y, q = params.b, params.b_x, params.b_y, params.q

        def size_of(k):
            return (b if k % q == 0 else b_x) + (b if (k + 1) % q == 0 else b_y)

        self.draws = _Draws(fs.sample, rng, b, size_of, params.n_inner)

    def first(self, x, y):
        self.w = self.fs.batch_grad_y(self.draws.take(self.params.b), x, y)
        self.at_y = (x, y)
        return self.w

    def primal(self, k, x, y):
        fs, params = self.fs, self.params
        if k % params.q == 0:
            u = fs.batch_grad_x(self.draws.take(params.b), x, y)
        else:
            batch = self.draws.take(params.b_x)
            u = self.u + (fs.batch_grad_x(batch, x, y)
                          - fs.batch_grad_x(batch, *self.at_x))
        self.u, self.at_x = u, (x, y)
        return u if self.grad_h is None else u + self.grad_h(x)

    def dual(self, k, x, y):
        fs, params = self.fs, self.params
        if (k + 1) % params.q == 0:
            w = fs.batch_grad_y(self.draws.take(params.b), x, y)
        else:
            batch = self.draws.take(params.b_y)
            w = self.w + (fs.batch_grad_y(batch, x, y)
                          - fs.batch_grad_y(batch, *self.at_y))
        s = self.two * w - self.w  # (1 + theta) w - theta w_k at theta = 1
        self.w, self.at_y = w, (x, y)
        return s


def vr_sapd_run(fs: FiniteSumSpec, p: ProblemSpec, params: VrParams, x0, y0,
                rng) -> SapdRunResult:
    """Run the variance-reduced inner solver on a finite-sum coupling.

    fs supplies batch gradients of the (possibly shifted) coupling; p supplies
    the prox maps.  Batch indices are drawn with replacement from a single rng
    stream, in blocks of whole iterations: the initial y-batch, then per
    iteration the x batch before the y batch.
    """
    if params.b > fs.n_comp:
        warnings.warn("large batch exceeds component count; sampling with "
                      "replacement", stacklevel=2)
    return _inner_loop(p, params, _SpiderGradient(fs, params, rng), x0, y0)
