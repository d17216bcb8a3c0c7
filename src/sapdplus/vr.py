"""Variance-reduced inner solver: recursive gradient estimators with
periodic large-batch refreshes, for finite-sum couplings.

Per iteration k (theta fixed to 1 by the parameter rule):

    y_{k+1} = prox_{sigma g}(y_k + sigma * s_k)
    v_k     = large-batch x-gradient at (x_k, y_{k+1})        if k % q == 0
              v_{k-1} + batch(x_k, y_{k+1}) - batch(x_{k-1}, y_k)  otherwise
    x_{k+1} = prox_{tau f}(x_k - tau * v_k)
    w_{k+1} = large-batch y-gradient at (x_{k+1}, y_{k+1})    if (k+1) % q == 0
              w_k + batch(x_{k+1}, y_{k+1}) - batch(x_k, y_k)     otherwise
    s_{k+1} = (1 + theta) w_{k+1} - theta w_k

with w_0 a large-batch draw at (x_0, y_0) and s_0 = w_0.  The recursion
evaluates the same batch at both point pairs.  Oracle cost is counted in
single-sample draws.  The iteration is the one inner loop of sapd.py; this
module supplies its SPIDER estimator of v_k and s_{k+1}.
"""

import warnings
from dataclasses import dataclass

from .errors import ConfigurationError
from .problem import FiniteSumSpec, ProblemSpec
from .sapd import SapdRunResult, _Draws, _inner_loop
from .sapd import _guard  # noqa: F401  (perfbench's traced run swaps vr._guard)


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
    previous call on its axis.  Its batches are slices of one _Draws of
    indices: b for w_0, then per iteration the x-batch before the y-batch.
    A recursion step draws its batch once and evaluates it twice, so the
    stage draws fewer indices than inner_oracle_calls counts."""

    def __init__(self, fs: FiniteSumSpec, params: VrParams, rng):
        self.fs, self.params = fs, params
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
            v = fs.batch_grad_x(self.draws.take(params.b), x, y)
        else:
            batch = self.draws.take(params.b_x)
            v = self.v + (fs.batch_grad_x(batch, x, y)
                          - fs.batch_grad_x(batch, *self.at_x))
        self.v, self.at_x = v, (x, y)
        return v

    def dual(self, k, x, y):
        fs, params, theta = self.fs, self.params, self.params.theta
        if (k + 1) % params.q == 0:
            w = fs.batch_grad_y(self.draws.take(params.b), x, y)
        else:
            batch = self.draws.take(params.b_y)
            w = self.w + (fs.batch_grad_y(batch, x, y)
                          - fs.batch_grad_y(batch, *self.at_y))
        s = (1.0 + theta) * w - theta * self.w
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
