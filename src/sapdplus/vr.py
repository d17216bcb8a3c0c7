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
single-sample draws.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .problem import FiniteSumSpec, ProblemSpec
from .sapd import SapdRunResult, _guard, _step_norm, inner_oracle_calls


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
    theta: float = 1.0

    def __post_init__(self):
        if self.tau <= 0 or self.sigma <= 0:
            raise ConfigurationError("tau, sigma must be positive")
        if self.theta != 1.0:
            raise ConfigurationError("the VR parameter rule fixes theta = 1")
        if min(self.b, self.b_x, self.b_y, self.q, self.n_inner) < 1:
            raise ConfigurationError("b, b_x, b_y, q, n_inner must be >= 1")
        if self.b < max(self.b_x, self.b_y):
            warnings.warn("large batch b below the small batches b_x/b_y",
                          stacklevel=2)


def vr_sapd_run(fs: FiniteSumSpec, p: ProblemSpec, params: VrParams, x0, y0, rng,
                debug_record: bool = False) -> SapdRunResult:
    """Run the variance-reduced inner solver on a finite-sum coupling.

    fs supplies batch gradients of the (possibly shifted) coupling; p supplies
    the prox maps.  Batch indices are drawn with replacement from a single rng
    stream.  With debug_record=True the result carries a per-iteration trace
    of (kind, batch, estimator, difference-term) for the recursion identity
    checks.
    """
    if params.b > fs.n_comp:
        warnings.warn("large batch exceeds component count; sampling with "
                      "replacement", stacklevel=2)
    tau, sigma, theta, q = params.tau, params.sigma, params.theta, params.q
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    x_prev = x.copy()
    y_prev = y.copy()

    batch0 = fs.sample(rng, params.b)
    w_prev = fs.batch_grad_y(batch0, x, y)
    s = w_prev.copy()
    v = None
    acc_x = np.zeros_like(x)
    acc_y = np.zeros_like(y)
    weight = 0.0
    trace = [] if debug_record else None
    if debug_record:
        trace.append(dict(k=0, axis="y", kind="refresh", batch=batch0,
                          estimator=w_prev.copy()))

    for k in range(params.n_inner):
        y_new = p.prox_g(y + sigma * s, sigma)
        if k % q == 0:
            batch = fs.sample(rng, params.b)
            v = fs.batch_grad_x(batch, x, y_new)
            if debug_record:
                trace.append(dict(k=k, axis="x", kind="refresh", batch=batch,
                                  estimator=v.copy()))
        else:
            batch = fs.sample(rng, params.b_x)
            diff = fs.batch_grad_x(batch, x, y_new) - fs.batch_grad_x(batch, x_prev, y)
            v = v + diff
            if debug_record:
                trace.append(dict(k=k, axis="x", kind="recursion", batch=batch,
                                  estimator=v.copy(), diff=diff.copy(),
                                  points=(x.copy(), y_new.copy(), x_prev.copy(), y.copy())))
        x_new = p.prox_f(x - tau * v, tau)
        _guard(x_new, y_new, k)
        if (k + 1) % q == 0:
            batch = fs.sample(rng, params.b)
            w_new = fs.batch_grad_y(batch, x_new, y_new)
            if debug_record:
                trace.append(dict(k=k + 1, axis="y", kind="refresh", batch=batch,
                                  estimator=w_new.copy()))
        else:
            batch = fs.sample(rng, params.b_y)
            qy = fs.batch_grad_y(batch, x_new, y_new) - fs.batch_grad_y(batch, x, y)
            w_new = w_prev + qy
            if debug_record:
                trace.append(dict(k=k + 1, axis="y", kind="recursion", batch=batch,
                                  estimator=w_new.copy(), diff=qy.copy(),
                                  points=(x_new.copy(), y_new.copy(), x.copy(), y.copy())))
        s = (1.0 + theta) * w_new - theta * w_prev
        w_prev = w_new
        x_prev, y_prev = x, y
        x, y = x_new, y_new
        acc_x += x  # rho = theta = 1: plain mean
        acc_y += y
        weight += 1.0

    x_calls, y_calls = inner_oracle_calls(params, params.n_inner)
    return SapdRunResult(
        x_avg=acc_x / weight, y_avg=acc_y / weight, x_last=x, y_last=y,
        x_calls=x_calls, y_calls=y_calls,
        last_step_norm=_step_norm(x, y, x_prev, y_prev),
        iterations=params.n_inner, trace=trace,
    )


def spider_bound_along_trajectory(points, params: VrParams, as_constants,
                                  delta: float, which: str = "x"):
    """Per-iteration bound on the estimator mean squared error, from a fixed
    trajectory.

    points: sequence of (x_k, y_{k+1}) pairs the x-estimator is evaluated at
    (for the y-axis, (x_k, y_k) pairs).  At refresh steps (k % q == 0) the
    bound is delta^2/b; otherwise it adds the since-refresh increments
        sum_{i=ref+1}^{k} (2 La^2/b') ||x_i - x_{i-1}||^2 + (2 Lb^2/b') ||y'_i - y'_{i-1}||^2
    with (La, Lb) the almost-sure constants of the axis and b' the small
    batch size.
    """
    s = as_constants
    if which == "x":
        la, lb, b_small = s.l_xx, s.l_xy, params.b_x
    elif which == "y":
        la, lb, b_small = s.l_yx, s.l_yy, params.b_y
    else:
        raise ConfigurationError("axis must be 'x' or 'y'")
    base = delta**2 / params.b
    bounds = []
    running = 0.0
    for k, (xk, yk) in enumerate(points):
        if k % params.q == 0:
            running = 0.0
        else:
            x_prev, y_prev = points[k - 1]
            running += (2.0 * la**2 / b_small) * float(np.sum((xk - x_prev) ** 2))
            running += (2.0 * lb**2 / b_small) * float(np.sum((yk - y_prev) ** 2))
        bounds.append(base + running)
    return np.array(bounds)


def spider_variance_probe(fs: FiniteSumSpec, points, params: VrParams, reps: int,
                          rng, delta: float, which: str = "x"):
    """Monte-Carlo estimate of the estimator MSE along a fixed trajectory,
    together with the analytic bound it must not exceed.

    points is a recorded list of evaluation pairs ((x_k, y_{k+1}) for the
    x-estimator).  For each repetition the estimator recursion is re-run with
    fresh batches along the fixed points; the MSE against the full-batch
    gradient is averaged over repetitions.  Returns a dict with per-iteration
    'mse', 'bound', 'stderr'.
    """
    if reps < 100:
        warnings.warn("fewer than 100 repetitions: weak statistical power",
                      stacklevel=2)
    grad = fs.batch_grad_x if which == "x" else fs.batch_grad_y
    full = [grad(np.arange(fs.n_comp), xk, yk) for xk, yk in points]
    n_pts = len(points)
    sq = np.zeros(n_pts)
    sq2 = np.zeros(n_pts)
    b_small = params.b_x if which == "x" else params.b_y
    for _ in range(reps):
        est = None
        for k, (xk, yk) in enumerate(points):
            if k % params.q == 0:
                est = grad(fs.sample(rng, params.b), xk, yk)
            else:
                x_prev, y_prev = points[k - 1]
                batch = fs.sample(rng, b_small)
                est = est + grad(batch, xk, yk) - grad(batch, x_prev, y_prev)
            err = float(np.sum((est - full[k]) ** 2))
            sq[k] += err
            sq2[k] += err**2
    mse = sq / reps
    var = np.maximum(sq2 / reps - mse**2, 0.0)
    stderr = np.sqrt(var / reps)
    bound = spider_bound_along_trajectory(points, params, fs.as_smoothness,
                                          delta, which)
    return {"mse": mse, "bound": bound, "stderr": stderr}
