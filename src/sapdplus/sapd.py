"""Inner solver for strongly-convex-strongly-concave subproblems.

One iteration, starting from (x_k, y_k) with dual-gradient memory q_k:

    s_k     = sgrad_y(x_k, y_k)  + theta * q_k
    y_{k+1} = prox_{sigma g}(y_k + sigma * s_k)
    x_{k+1} = prox_{tau f}(x_k - tau * sgrad_x(x_k, y_{k+1}))
    q_{k+1} = sgrad_y(x_{k+1}, y_{k+1}) - sgrad_y(x_k, y_k)

The y-gradient drawn at (x_{k+1}, y_{k+1}) is cached and reused as the
s-term of the next iteration, so each iteration consumes exactly one fresh
y-sample and one fresh x-sample (N x-calls and N+1 y-calls per run).  The
output is the rho^{-k}-weighted average of iterates 1..N.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .problem import ProblemSpec

DIVERGENCE_NORM = 1e12


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
    trace: Optional[list] = field(default=None, repr=False)

    @property
    def oracle_calls(self):
        return self.x_calls + self.y_calls


def weighted_average(iterates, rho):
    """rho^{-k}-weighted average of z_1..z_N, normalized by K_N(rho).

    Accumulated in the rescaled form (multiply the running sums by rho each
    step) so no rho^{-k} factor is ever formed; safe for large N.
    """
    if not (0 < rho <= 1):
        raise ConfigurationError("rho must lie in (0, 1]")
    acc = None
    weight = 0.0
    for z in iterates:
        z = np.asarray(z, dtype=float)
        acc = z.copy() if acc is None else rho * acc + z
        weight = rho * weight + 1.0
    if acc is None:
        raise ConfigurationError("weighted_average needs a nonempty sequence")
    return acc / weight


def _guard(x, y, k):
    # One comparison covers both failures: it is also false for NaN and +-inf.
    if not (x @ x + y @ y <= DIVERGENCE_NORM**2):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DivergenceError(f"non-finite iterate at inner iteration {k}",
                                  iteration=k)
        raise DivergenceError(f"iterate norm above guard at inner iteration {k}",
                              iteration=k)


def _step_norm(x_new, y_new, x, y):
    return float(np.sqrt(np.sum((x_new - x) ** 2) + np.sum((y_new - y) ** 2)))


def sapd_run(p: ProblemSpec, params: SapdParams, x0, y0, rng,
             step_tol: float = 0.0, record_iterates: bool = False) -> SapdRunResult:
    """Run n_inner iterations from (x0, y0); rng = None uses exact gradients.

    step_tol > 0 allows an early exit once ||z_{k+1} - z_k|| falls below it
    (deterministic prox-evaluation use); the averaged output always covers
    exactly the iterations performed.
    """
    tau, sigma, theta, rho = params.tau, params.sigma, params.theta, params.rho
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    gy_prev = p.stoch_grad_y(x, y, rng)
    q_tilde = np.zeros_like(y)
    acc_x = np.zeros_like(x)
    acc_y = np.zeros_like(y)
    weight = 0.0
    trace = [] if record_iterates else None
    for k in range(params.n_inner):
        s = gy_prev + theta * q_tilde
        y_new = p.prox_g(y + sigma * s, sigma)
        gx = p.stoch_grad_x(x, y_new, rng)
        x_new = p.prox_f(x - tau * gx, tau)
        _guard(x_new, y_new, k)
        gy_new = p.stoch_grad_y(x_new, y_new, rng)
        q_tilde = gy_new - gy_prev
        gy_prev = gy_new
        x_prev, y_prev = x, y
        x, y = x_new, y_new
        acc_x *= rho
        acc_x += x
        acc_y *= rho
        acc_y += y
        weight = rho * weight + 1.0
        if record_iterates:
            trace.append((x.copy(), y.copy()))
        if step_tol > 0 and _step_norm(x, y, x_prev, y_prev) <= step_tol:
            break
    iterations = k + 1
    return SapdRunResult(
        x_avg=acc_x / weight, y_avg=acc_y / weight, x_last=x, y_last=y,
        x_calls=iterations, y_calls=iterations + 1,
        last_step_norm=_step_norm(x, y, x_prev, y_prev),
        iterations=iterations, trace=trace,
    )
