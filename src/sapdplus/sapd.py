"""Inner solver for strongly-convex-strongly-concave subproblems.

Both inner solvers run one loop.  Iteration k, from (x_k, y_k) and the
dual direction s_k:

    y_{k+1} = prox_{sigma g}(y_k + sigma * s_k)
    x_{k+1} = prox_{tau f}(x_k - tau * v_k),   v_k ~ grad_x(x_k, y_{k+1})
    s_{k+1} = next dual direction at (x_{k+1}, y_{k+1})

and the output is the rho^{-k}-weighted average of iterates 1..N.  A
gradient estimator supplies s_0, v_k and s_{k+1}.  The plain stochastic
one (here) evaluates g_k = sgrad_y(x_k, y_k) once per iteration and sets

    s_0 = g_0 + theta * 0,   s_{k+1} = g_{k+1} + theta * (g_{k+1} - g_k),

so each iteration consumes one fresh x-sample and one fresh y-sample (see
inner_oracle_calls).  The oracles take no Generator: each call receives its
slice of random values, which the estimator draws for many iterations at a
time (_Draws) in the order per-call drawing would give.  The SPIDER
recursion is the other estimator (vr.py).
With theta = 0, rho = 1, alpha = 0 the loop is alternating proximal
stochastic gradient descent-ascent, the CLI's sgda-baseline.

Products that run once per iteration, per oracle call or per accelerated
prox step (the guard here, the quadratic and DRO oracles, evaluation's
norm) are written ndarray.dot, not @: on vectors of length 10, @ pays the
matmul gufunc's dispatch and takes about twice as long.  Both call the same
BLAS routine, so they agree bit for bit; the one exception is a product of
two one-element operands, where .dot is a plain multiply and keeps a -0.0
that @ returns as +0.0 (tests/test_kernel_identity.py holds this premise).
Setup-time products keep @.

Coefficients that multiply, divide, offset or clip an array once per
iteration or oracle call (tau, sigma, rho and theta here, the shift of
add_quadratic, the oracles' constants in datasets, the accelerated prox's
steps in evaluation) are 0-d float64 arrays, built once per stage or per
instance.  numpy 2 converts a Python-float operand on every call, which
costs about 175 ns more than a 0-d array (timeit minima, numpy 2.4.6:
543 against 367 ns for c * v at n = 1, 737 against 561 ns at n = 1000).
For float64 operands both forms run the same float64 loop (NEP 50), so
they agree bit for bit, as np.multiply(a, r, a) and np.add(a, v, a) agree
with a *= r and a += v (tests/test_kernel_identity.py holds these
premises).  A 0-d array spreads: a product of two of them is an
np.float64, and a float32 operand is promoted to float64.  So scalar
arithmetic stays in Python floats: the weight recursion, the guard's
comparison, the fields of SapdParams and VrParams, and the step handed to
a prox map (tests/test_scalar_types.py).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .problem import ProblemSpec

DIVERGENCE_NORM = 1e12
# at most this many random values per drawn block: 512 KB of float64
CHUNK_VALUES = 2**16


@dataclass(frozen=True)
class SapdParams:
    """One inner-solver configuration (certifiable against the 5x5 LMI)."""

    tau: float
    sigma: float
    theta: float
    rho: float
    alpha: float
    mu_x: float
    n_inner: int

    def __post_init__(self):
        if self.tau <= 0 or self.sigma <= 0:
            raise ConfigurationError("tau, sigma must be positive")
        if not (0 <= self.theta <= 1):
            raise ConfigurationError("theta must lie in [0, 1]")
        if not (0 < self.rho <= 1):
            raise ConfigurationError("rho must lie in (0, 1]")
        if not (0 <= self.alpha < 1.0 / self.sigma):
            raise ConfigurationError("alpha must lie in [0, 1/sigma)")
        if self.n_inner < 1:
            raise ConfigurationError("n_inner must be >= 1")


@dataclass
class SapdRunResult:
    x_avg: np.ndarray
    y_avg: np.ndarray
    x_last: np.ndarray
    y_last: np.ndarray
    x_calls: int
    y_calls: int
    last_step_norm: float
    iterations: int


def inner_oracle_calls(params, iterations: int) -> tuple:
    """(x_calls, y_calls) of an inner run of `iterations` iterations.

    Plain solver: one x-call and one y-call per iteration plus the initial
    y-call, (N, N+1).  Variance-reduced solver (a VrParams), in single-sample
    draws: ceil(N/q) x-refreshes and floor(N/q) y-refreshes of b draws each,
    2 b_x (x) or 2 b_y (y) draws per recursion step, and the initial y-batch
    of b draws.  These count component evaluations: a recursion step draws
    its b_x (b_y) indices once, so it is not the number of random values a
    stage draws (_SpiderGradient sizes its own blocks).
    """
    if isinstance(params, SapdParams):
        return iterations, iterations + 1
    n, q, b = iterations, params.q, params.b
    refresh_x, refresh_y = -(-n // q), n // q
    return (refresh_x * b + (n - refresh_x) * 2 * params.b_x,
            b + refresh_y * b + (n - refresh_y) * 2 * params.b_y)


def inner_draws(params, iterations: int, oracle_batch: int) -> int:
    """Single-sample draws of an inner run.

    A plain-solver call draws oracle_batch samples; the variance-reduced
    counts are in draws already.
    """
    x_calls, y_calls = inner_oracle_calls(params, iterations)
    return (x_calls + y_calls) * (oracle_batch if isinstance(params, SapdParams) else 1)


def _guard(x, y, k):
    # One comparison covers both failures: it is also false for NaN and +-inf.
    if not (x.dot(x) + y.dot(y) <= DIVERGENCE_NORM**2):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DivergenceError(f"non-finite iterate at inner iteration {k}",
                                  iteration=k)
        raise DivergenceError(f"iterate norm above guard at inner iteration {k}",
                              iteration=k)


def _step_norm(x_new, y_new, x, y):
    return math.sqrt(((x_new - x) ** 2).sum() + ((y_new - y) ** 2).sum())


class _Draws:
    """The random values of one stage, handed out in call order by take().

    They come from draw(rng, size) in blocks of whole iterations, each block
    at most CHUNK_VALUES values unless one iteration alone is larger: `head`
    values before iteration 0, then size_of(k) values for iteration k of n.
    The values and the final generator state equal those of one draw per
    call, except that a stage which stops early leaves the generator past
    the rest of its last block.
    """

    def __init__(self, draw, rng, head, size_of, n):
        self.draw, self.rng, self.size_of, self.n = draw, rng, size_of, n
        self.head = head
        self.end = 0  # the first iteration not drawn yet
        self.block, self.pos, self.stop = None, 0, 0

    def take(self, size):
        pos = self.pos
        if pos == self.stop:
            self._next_block()
            pos = 0
        self.pos = pos + size
        return self.block[pos:pos + size]

    def _next_block(self):
        k, total = self.end + 1, self.head + self.size_of(self.end)
        while k < self.n:
            size = self.size_of(k)
            if total + size > CHUNK_VALUES:
                break
            total += size
            k += 1
        self.block, self.stop = self.draw(self.rng, total), total
        self.head, self.end = 0, k


class _StochasticGradient:
    """The plain estimator: a fresh stochastic draw per gradient.

    Once per stage, each axis takes its stochastic oracle when there is an
    rng and the problem has one, else its exact gradient.  The stochastic
    calls take their values from one _Draws: the first y-call's, then per
    iteration the x-call's before the y-call's.
    """

    def __init__(self, p: ProblemSpec, params, rng):
        self.grad_x, self.grad_y = p.grad_x, p.grad_y
        self.theta = np.array(params.theta)  # 0-d coefficient (module docstring)
        nx, ny = (0, 0) if rng is None else (p.draw_x, p.draw_y)
        if nx or ny:
            take = _Draws(p.draw, rng, ny, lambda k: nx + ny, params.n_inner).take
        # the drawn oracles close over the draws, not over self: a reference
        # cycle would keep each stage's block alive until the cyclic collector
        # runs
        if nx:
            sgrad_x = p.sgrad_x
            self.grad_x = lambda x, y: sgrad_x(x, y, take(nx))
        if ny:
            sgrad_y = p.sgrad_y
            self.grad_y = lambda x, y: sgrad_y(x, y, take(ny))
        if params.theta == 0:
            # the sgda baseline: s = g, where the momentum form would give
            # +0.0 for g = -0.0 and NaN for an infinite g - g_k
            grad_y = self.first = self.grad_y
            self.dual = lambda k, x, y: grad_y(x, y)

    def first(self, x, y):
        self.g = self.grad_y(x, y)
        return self.g + self.theta * np.zeros_like(y)

    def primal(self, k, x, y):
        return self.grad_x(x, y)

    def dual(self, k, x, y):
        g = self.grad_y(x, y)
        s = g + self.theta * (g - self.g)
        self.g = g
        return s


def _inner_loop(p: ProblemSpec, params, estimator, x0, y0, step_tol=0.0,
                on_iterate=None) -> SapdRunResult:
    """The one inner iteration, with its gradients from `estimator`:
    first(x_0, y_0) gives s_0, primal(k, x_k, y_{k+1}) the x-gradient
    estimate and dual(k, x_{k+1}, y_{k+1}) the direction s_{k+1}."""
    tau, sigma, rho = params.tau, params.sigma, params.rho
    # 0-d coefficients for the array products; the floats go to the prox maps
    # and the weight recursion (module docstring)
    tau_c, sigma_c, rho_c = np.array(tau), np.array(sigma), np.array(rho)
    multiply, add = np.multiply, np.add
    prox_f, prox_g = p.prox_f, p.prox_g
    primal, dual = estimator.primal, estimator.dual
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    s = estimator.first(x, y)
    acc_x = np.zeros_like(x)
    acc_y = np.zeros_like(y)
    weight = 0.0
    for k in range(params.n_inner):
        y_new = prox_g(y + sigma_c * s, sigma)
        x_new = prox_f(x - tau_c * primal(k, x, y_new), tau)
        _guard(x_new, y_new, k)
        s = dual(k, x_new, y_new)
        x_prev, y_prev = x, y
        x, y = x_new, y_new
        # acc = rho * acc + x in place, as *= and += compute it
        if rho != 1.0:  # at rho = 1 the products are exact identities
            multiply(acc_x, rho_c, acc_x)
            multiply(acc_y, rho_c, acc_y)
        add(acc_x, x, acc_x)
        add(acc_y, y, acc_y)
        weight = rho * weight + 1.0
        if on_iterate is not None:
            on_iterate(k, x, y)
        if step_tol > 0 and _step_norm(x, y, x_prev, y_prev) <= step_tol:
            break
    iterations = k + 1
    x_calls, y_calls = inner_oracle_calls(params, iterations)
    return SapdRunResult(
        x_avg=acc_x / weight, y_avg=acc_y / weight, x_last=x, y_last=y,
        x_calls=x_calls, y_calls=y_calls,
        last_step_norm=_step_norm(x, y, x_prev, y_prev), iterations=iterations,
    )


def sapd_run(p: ProblemSpec, params: SapdParams, x0, y0, rng,
             step_tol: float = 0.0,
             on_iterate: Optional[Callable] = None) -> SapdRunResult:
    """Run n_inner iterations from (x0, y0); rng = None uses exact gradients.

    step_tol > 0 allows an early exit once ||z_{k+1} - z_k|| falls below it
    (deterministic prox-evaluation use); the averaged output always covers
    exactly the iterations performed.  With an rng, an early exit leaves the
    generator past draws of iterations that never ran, since draws come in
    blocks of many iterations.  on_iterate, if given, is called as
    on_iterate(k, x_{k+1}, y_{k+1}) after each iteration, with the solver's
    own arrays: copy what you keep.
    """
    return _inner_loop(p, params, _StochasticGradient(p, params, rng),
                       x0, y0, step_tol, on_iterate)
