"""Stationarity metrics.

The headline metric is the norm of the Moreau-envelope gradient,
||grad phi_lam(x)|| = ||x - prox_{lam phi}(x)|| / lam (Davis & Drusvyatskiy
2019).  The prox point is the minimizer of
psi(w) = phi(w) + ||w - x||^2/(2 lam), which is (1/lam - gamma)-strongly
convex.  It is found on one of two paths:

- mu_y > 0: phi is smooth, and accelerated gradient descent on psi finds the
  prox point with a certified error bound (the certificate path).
- mu_y = 0: phi may be nonsmooth, and a nested deterministic SAPD solve of
  the quadratically shifted saddle problem stands in (the nested path).

On both paths `tol` is the stop tolerance and `max_calls` the budget in
blocks of PROX_BLOCK steps; `moreau_stationarity` says what each means.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .params import vr_step_sizes
from .problem import ProblemSpec, shifted_subproblem
from .sapd import SapdParams, sapd_run

# steps per unit of max_calls: the iterations of one nested SAPD run, or
# that many accelerated steps
PROX_BLOCK = 200
ULP = float(np.finfo(float).eps)


@dataclass
class StationarityEstimate:
    lam: float
    prox_point: np.ndarray
    value: float  # ||x - prox|| / lam
    reliable: bool
    inner_iterations: int


def prox_solve_params(p: ProblemSpec, mu_x: float) -> SapdParams:
    """Deterministic inner parameters for the nested prox solve (mu_y = 0).

    theta = 1 with the variance-reduced step sizes (params.vr_step_sizes)
    at zero corrections, tau = 1/(l_yx + l'_xx), sigma = 1/(2 l_yy + l_yx),
    with l'_xx = l_xx + mu_x + gamma for this mu_x; the dual then leans on
    the coupling alone, which is enough for the prox point since the primal
    part is mu_x-strongly convex.  vr_schedule itself cannot serve: its
    corrections (_vr_corrections) raise at mu_y = 0.  alpha is shaved below
    1/sigma, which SapdParams refuses.  A strongly concave problem takes
    the certificate path and has no nested solve.
    """
    s, c = p.smoothness, p.convexity
    if c.mu_y > 0:
        raise ConfigurationError(
            "mu_y > 0: the prox point is found by accelerated descent, not a nested solve")
    tau, sigma = vr_step_sizes(s, s.l_xx + mu_x + c.gamma, 0.0, 0.0)
    alpha = min(s.l_yx + s.l_yy, (1.0 - 1e-9) / sigma)
    return SapdParams(tau=tau, sigma=sigma, theta=1.0, rho=1.0, alpha=alpha,
                      mu_x=mu_x, n_inner=PROX_BLOCK)


def _norm(v):
    return math.sqrt(v.dot(v))


def _accelerated_prox(p: ProblemSpec, x, lam, tol, steps):
    """(w, accelerated steps taken, certified) for prox_{lam phi}(x), mu_y > 0.

    Constant-momentum accelerated proximal gradient on psi, with
    mu_psi = 1/lam - gamma and L_psi = l_xx + l_xy l_yx/mu_y + 1/lam.  The
    gradient of phi at u is grad_x(u, y_hat) by Danskin's theorem, with
    y_hat from warm-started prox-gradient ascent on the dual at step
    sigma = 1/l_yy (1/mu_y when l_yy = 0), a contraction of rate
    rho = 1/(1 + sigma mu_y).  So ||y_hat - y*(u)|| <= rho/(1-rho) ||dy||,
    dy the last dual step, and the gradient error is at most
    err = l_xy rho/(1-rho) ||dy|| = l_xy ||dy||/(sigma mu_y).  With w the
    prox_f step from u at step t = 1/L_psi and G = (u - w)/t, strong
    convexity gives ||u - prox|| <= (||G|| + err)/mu_psi, and
    ||w - prox|| <= (1 - t mu_psi) ||u - prox|| + t err is no larger than
    that bound; the loop returns w once the bound is at most tol.  Dual
    steps at one point run until err is at most half of
    max(mu_psi tol, ||G|| of the previous point); both the accelerated and
    the dual steps are capped at `steps`.
    """
    s, c = p.smoothness, p.convexity
    mu = 1.0 / lam - c.gamma
    t = 1.0 / (s.l_xx + s.l_xy * s.l_yx / c.mu_y + 1.0 / lam)
    root = math.sqrt(mu * t)
    momentum = (1.0 - root) / (1.0 + root)
    sigma = 1.0 / s.l_yy if s.l_yy > 0 else 1.0 / c.mu_y
    err_per_dy = s.l_xy / (sigma * c.mu_y)
    grad_x, grad_y, prox_f, prox_g = p.grad_x, p.grad_y, p.prox_f, p.prox_g
    # 0-d coefficients for the array updates; the float steps go to the prox
    # maps (sapd module docstring)
    sigma_c, t_c, lam_c, momentum_c = (np.array(sigma), np.array(t), np.array(lam),
                                       np.array(momentum))

    v = u = x
    y = np.zeros(p.m)
    err_target = math.inf
    dual_left = steps
    for k in range(1, steps + 1):
        while True:
            y_new = prox_g(y + sigma_c * grad_y(u, y), sigma)
            err = err_per_dy * _norm(y_new - y)
            y = y_new
            dual_left -= 1
            if err <= err_target or dual_left == 0:
                break
        w = prox_f(u - t_c * (grad_x(u, y) + (u - x) / lam_c), t)
        # u - w loses what is below an ulp of w: count that as unseen gradient
        grad_map = (_norm(u - w) + ULP * _norm(w)) / t
        if (grad_map + err) / mu <= tol:
            return w, k, True
        if dual_left == 0:
            return w, k, False
        err_target = 0.5 * max(mu * tol, grad_map)
        u = w + momentum_c * (w - v)
        v = w
    return v, steps, False


def _nested_prox(p: ProblemSpec, x, lam, tol, max_calls):
    """(w, SAPD iterations run, stalled) for prox_{lam phi}(x), mu_y = 0.

    Runs of PROX_BLOCK exact-gradient SAPD iterations on the shifted saddle
    problem from (x, 0), each warm-started at the last iterate of the one
    before, until the last step norm is at most tol.
    """
    mu_x = 1.0 / lam - p.convexity.gamma
    sub = shifted_subproblem(p, x, mu_x)
    params = prox_solve_params(p, mu_x)
    w, y = x.copy(), np.zeros(p.m)
    total = 0
    for _ in range(max_calls):
        res = sapd_run(sub, params, w, y, rng=None, step_tol=tol)
        w, y = res.x_last, res.y_last
        total += res.iterations
        if res.last_step_norm <= tol:
            return w, total, True
    return w, total, False


def moreau_stationarity(p: ProblemSpec, x, lam: Optional[float] = None,
                        tol: float = 1e-8, max_calls: int = 400) -> StationarityEstimate:
    """Estimate ||grad phi_lam(x)|| for phi(x) = max_y f(x) + Phi(x,y) - g(y).

    Default lam = 1/(2 gamma); lam must lie in (0, 1/gamma).

    mu_y > 0 (certificate path): accelerated gradient descent on psi, see
    _accelerated_prox.  tol bounds the distance to the prox point:
    reliable=True certifies ||prox_point - prox_{lam phi}(x)|| <= tol, so
    `value` is within tol/lam of the true norm.  max_calls caps the
    accelerated steps (and the dual steps) at max_calls * PROX_BLOCK, and
    inner_iterations counts the accelerated steps.

    mu_y = 0 (nested path): up to max_calls exact-gradient SAPD runs of
    PROX_BLOCK iterations on the shifted saddle problem, see _nested_prox.
    tol is a step-norm threshold, and reliable=True only says that the
    last step norm fell to tol, not how far prox_point is from the prox
    point.  inner_iterations counts the SAPD iterations.
    """
    gamma = p.convexity.gamma
    lam = 1.0 / (2.0 * gamma) if lam is None else lam
    if not (0 < lam < 1.0 / gamma):
        raise ConfigurationError("lambda must lie in (0, 1/gamma)")
    x = np.asarray(x, dtype=float)
    if p.convexity.mu_y > 0:
        w, iters, reliable = _accelerated_prox(p, x, lam, tol, max_calls * PROX_BLOCK)
    else:
        w, iters, reliable = _nested_prox(p, x, lam, tol, max_calls)
    value = float(np.linalg.norm(x - w)) / lam
    return StationarityEstimate(lam=lam, prox_point=w, value=value,
                                reliable=reliable, inner_iterations=iters)
