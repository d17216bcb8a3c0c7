"""Frozen reference copies of the inner-solver loops, for bit-identity tests.

These are the loop bodies of `sapd_run` and `vr_sapd_run` as they stood
before the hot path was made lean (per-step step norm, allocating
averages, guard via `np.isfinite` then a sum of squares).  They are not
part of the package: the tests run both versions on the same inputs and
require every result field to match bit for bit.  Do not edit them to
follow later changes of the solvers.
"""

import numpy as np

from sapdplus.errors import DivergenceError
from sapdplus.sapd import DIVERGENCE_NORM, SapdRunResult


def reference_guard(x, y, k):
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DivergenceError(f"non-finite iterate at inner iteration {k}", iteration=k)
    if float(np.sum(x * x) + np.sum(y * y)) > DIVERGENCE_NORM**2:
        raise DivergenceError(f"iterate norm above guard at inner iteration {k}",
                              iteration=k)


def reference_sapd_run(p, params, x0, y0, rng, step_tol=0.0, record_iterates=False):
    tau, sigma, theta, rho = params.tau, params.sigma, params.theta, params.rho
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    gy_prev = p.stoch_grad_y(x, y, rng)
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
        gx = p.stoch_grad_x(x, y_new, rng)
        x_calls += 1
        x_new = p.prox_f(x - tau * gx, tau)
        reference_guard(x_new, y_new, k)
        gy_new = p.stoch_grad_y(x_new, y_new, rng)
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
    return SapdRunResult(
        x_avg=acc_x / weight, y_avg=acc_y / weight, x_last=x, y_last=y,
        x_calls=x_calls, y_calls=y_calls, last_step_norm=step_norm,
        iterations=k + 1, trace=trace,
    )


def reference_vr_sapd_run(fs, p, params, x0, y0, rng, debug_record=False):
    tau, sigma, theta, q = params.tau, params.sigma, params.theta, params.q
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
    trace = [] if debug_record else None
    if debug_record:
        trace.append(dict(k=0, axis="y", kind="refresh", batch=batch0,
                          estimator=w_prev.copy()))

    for k in range(params.n_inner):
        y_new = p.prox_g(y + sigma * s, sigma)
        if k % q == 0:
            batch = fs.sample(rng, params.b)
            v = fs.batch_grad_x(batch, x, y_new)
            x_samples += params.b
            if debug_record:
                trace.append(dict(k=k, axis="x", kind="refresh", batch=batch,
                                  estimator=v.copy()))
        else:
            batch = fs.sample(rng, params.b_x)
            diff = fs.batch_grad_x(batch, x, y_new) - fs.batch_grad_x(batch, x_prev, y)
            v = v + diff
            x_samples += 2 * params.b_x
            if debug_record:
                trace.append(dict(k=k, axis="x", kind="recursion", batch=batch,
                                  estimator=v.copy(), diff=diff.copy(),
                                  points=(x.copy(), y_new.copy(), x_prev.copy(), y.copy())))
        x_new = p.prox_f(x - tau * v, tau)
        reference_guard(x_new, y_new, k)
        if (k + 1) % q == 0:
            batch = fs.sample(rng, params.b)
            w_new = fs.batch_grad_y(batch, x_new, y_new)
            y_samples += params.b
            if debug_record:
                trace.append(dict(k=k + 1, axis="y", kind="refresh", batch=batch,
                                  estimator=w_new.copy()))
        else:
            batch = fs.sample(rng, params.b_y)
            qy = fs.batch_grad_y(batch, x_new, y_new) - fs.batch_grad_y(batch, x, y)
            w_new = w_prev + qy
            y_samples += 2 * params.b_y
            if debug_record:
                trace.append(dict(k=k + 1, axis="y", kind="recursion", batch=batch,
                                  estimator=w_new.copy(), diff=qy.copy(),
                                  points=(x_new.copy(), y_new.copy(), x.copy(), y.copy())))
        s = (1.0 + theta) * w_new - theta * w_prev
        w_prev = w_new
        step_norm = float(np.sqrt(np.sum((x_new - x) ** 2) + np.sum((y_new - y) ** 2)))
        x_prev = x
        x, y = x_new, y_new
        acc_x = acc_x + x
        acc_y = acc_y + y
        weight += 1.0

    return SapdRunResult(
        x_avg=acc_x / weight, y_avg=acc_y / weight, x_last=x, y_last=y,
        x_calls=x_samples, y_calls=y_samples, last_step_norm=step_norm,
        iterations=params.n_inner, trace=trace,
    )
