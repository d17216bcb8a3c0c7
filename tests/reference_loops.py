"""Frozen reference copies of the inner-solver loops, for bit-identity tests.

These are the loop bodies of `sapd_run` and `vr_sapd_run` as they stood
before the hot path was made lean (per-step step norm, allocating
averages, guard via `np.isfinite` then a sum of squares), and of the CLI's
`sgda_baseline_run` before it became a `sapd_run` call.  They are not part
of the package: the tests run both versions on the same inputs and require
every result field to match bit for bit.  Do not edit them to follow later
changes of the solvers.  The one exception: the stochastic oracles now
take their random values as an argument, so `reference_grad` draws each
call's values with the problem's draw callable as that call is made, the
order the removed `ProblemSpec.stoch_grad_*` drew them in.

`reference_vr_sapd_run` evaluates the full component x-gradient at both
points of a recursion step, batch plus the shared `grad_h` at each, as the
solver did before the batches left `grad_h` out.  The solver now adds
`grad_h` once, at the new point, so the two agree to rounding, not bit for
bit; draws, batches and call counts still match exactly.  `grad_h` is read
from the problem (`ProblemSpec.grad_h`, which a stage's shift extends),
where the finite sum once carried it; the recursion is unchanged.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from sapdplus.errors import DivergenceError
from sapdplus.sapd import DIVERGENCE_NORM


@dataclass
class ReferenceRun:
    """The fields of a SapdRunResult, plus the oracle calls the loop counted
    per axis and the recorded iterates."""

    x_avg: np.ndarray
    y_avg: np.ndarray
    x_last: np.ndarray
    y_last: np.ndarray
    x_calls: int
    y_calls: int
    last_step_norm: float
    iterations: int
    trace: Optional[list] = None


def reference_guard(x, y, k):
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DivergenceError(f"non-finite iterate at inner iteration {k}", iteration=k)
    if float(np.sum(x * x) + np.sum(y * y)) > DIVERGENCE_NORM**2:
        raise DivergenceError(f"iterate norm above guard at inner iteration {k}",
                              iteration=k)


def reference_grad(p, axis, x, y, rng):
    """One oracle call that draws its own values; exact when rng is None or
    the axis has no stochastic oracle."""
    sgrad = getattr(p, "sgrad_" + axis)
    if sgrad is None or rng is None:
        return getattr(p, "grad_" + axis)(x, y)
    return sgrad(x, y, p.draw(rng, getattr(p, "draw_" + axis)))


def reference_sapd_run(p, params, x0, y0, rng, step_tol=0.0, record_iterates=False):
    tau, sigma, theta, rho = params.tau, params.sigma, params.theta, params.rho
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    gy_prev = reference_grad(p, "y", x, y, rng)
    q_tilde = np.zeros_like(y)
    x_calls, y_calls = 0, 1
    acc_x = np.zeros_like(x)
    acc_y = np.zeros_like(y)
    weight = 0.0
    step_norm = np.inf
    trace = [] if record_iterates else None
    k = 0
    for k in range(params.n_inner):
        s = gy_prev + theta * q_tilde
        y_new = p.prox_g(y + sigma * s, sigma)
        gx = reference_grad(p, "x", x, y_new, rng)
        x_calls += 1
        x_new = p.prox_f(x - tau * gx, tau)
        reference_guard(x_new, y_new, k)
        gy_new = reference_grad(p, "y", x_new, y_new, rng)
        y_calls += 1
        q_tilde = gy_new - gy_prev
        gy_prev = gy_new
        step_norm = float(np.sqrt(np.sum((x_new - x) ** 2) + np.sum((y_new - y) ** 2)))
        x, y = x_new, y_new
        acc_x = rho * acc_x + x
        acc_y = rho * acc_y + y
        weight = rho * weight + 1.0
        if record_iterates:
            trace.append((x.copy(), y.copy()))
        if step_tol > 0 and step_norm <= step_tol:
            break
    return ReferenceRun(
        x_avg=acc_x / weight, y_avg=acc_y / weight, x_last=x, y_last=y,
        x_calls=x_calls, y_calls=y_calls, last_step_norm=step_norm,
        iterations=k + 1, trace=trace,
    )


def reference_vr_sapd_run(fs, p, params, x0, y0, rng):
    tau, sigma, theta, q = params.tau, params.sigma, params.theta, params.q

    def batch_grad_x(batch, x, y):
        g = fs.batch_grad_x(batch, x, y)
        return g if p.grad_h is None else g + p.grad_h(x)
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    x_prev = x.copy()

    batch0 = fs.sample(rng, params.b)
    w_prev = fs.batch_grad_y(batch0, x, y)
    s = w_prev.copy()
    x_samples, y_samples = 0, params.b
    v = None
    acc_x = np.zeros_like(x)
    acc_y = np.zeros_like(y)
    weight = 0.0
    step_norm = np.inf

    for k in range(params.n_inner):
        y_new = p.prox_g(y + sigma * s, sigma)
        if k % q == 0:
            batch = fs.sample(rng, params.b)
            v = batch_grad_x(batch, x, y_new)
            x_samples += params.b
        else:
            batch = fs.sample(rng, params.b_x)
            diff = batch_grad_x(batch, x, y_new) - batch_grad_x(batch, x_prev, y)
            v = v + diff
            x_samples += 2 * params.b_x
        x_new = p.prox_f(x - tau * v, tau)
        reference_guard(x_new, y_new, k)
        if (k + 1) % q == 0:
            batch = fs.sample(rng, params.b)
            w_new = fs.batch_grad_y(batch, x_new, y_new)
            y_samples += params.b
        else:
            batch = fs.sample(rng, params.b_y)
            qy = fs.batch_grad_y(batch, x_new, y_new) - fs.batch_grad_y(batch, x, y)
            w_new = w_prev + qy
            y_samples += 2 * params.b_y
        s = (1.0 + theta) * w_new - theta * w_prev
        w_prev = w_new
        step_norm = float(np.sqrt(np.sum((x_new - x) ** 2) + np.sum((y_new - y) ** 2)))
        x_prev = x
        x, y = x_new, y_new
        acc_x = acc_x + x
        acc_y = acc_y + y
        weight += 1.0

    return ReferenceRun(
        x_avg=acc_x / weight, y_avg=acc_y / weight, x_last=x, y_last=y,
        x_calls=x_samples, y_calls=y_samples, last_step_norm=step_norm,
        iterations=params.n_inner,
    )


def reference_sgda_run(p, steps, tau, sigma, rng, x0=None, y0=None,
                       record_every=1):
    """Alternating proximal stochastic gradient descent-ascent, constant steps.

    Returns records (k, calls, x, y), one per `record_every` iterations.
    """
    x = np.zeros(p.n) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(p.m) if y0 is None else np.array(y0, dtype=float)
    records = [(0, 0, x.copy(), y.copy())]
    calls = 0
    for k in range(steps):
        gy = reference_grad(p, "y", x, y, rng)
        y = p.prox_g(y + sigma * gy, sigma)
        gx = reference_grad(p, "x", x, y, rng)
        x = p.prox_f(x - tau * gx, tau)
        reference_guard(x, y, k)
        calls += 2 * p.oracle_batch
        if (k + 1) % record_every == 0 or k + 1 == steps:
            records.append((k + 1, calls, x.copy(), y.copy()))
    return records
