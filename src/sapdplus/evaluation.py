"""Stationarity metrics.

The headline metric is the norm of the Moreau-envelope gradient,
||grad phi_lam(x)|| = ||x - prox_{lam phi}(x)|| / lam, with the prox point
approximated by a nested deterministic solve of the quadratically shifted
saddle problem.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .params import beta_of, step_rule, theta_bar
from .problem import ProblemSpec, shifted_subproblem
from .sapd import SapdParams, sapd_run


@dataclass
class StationarityEstimate:
    lam: float
    prox_point: np.ndarray
    value: float  # ||x - prox|| / lam
    reliable: bool
    inner_iterations: int


def prox_solve_params(p: ProblemSpec, mu_x: float) -> SapdParams:
    """Deterministic inner parameters for the nested prox solve.

    mu_y > 0: the closed-form step rule at theta = theta_bar(beta).
    mu_y = 0: theta = 1 with the periodless variance-reduced step sizes
    tau = 1/(l_yx + l'_xx), sigma = 1/(2 l_yy + l_yx); the dual then leans
    on the coupling alone, which is enough for the prox point since the
    primal part is mu_x-strongly convex.
    """
    s, c = p.smoothness, p.convexity
    if c.mu_y > 0:
        theta = theta_bar(beta_of(s, c), s, c, mu_x)
        return step_rule(min(max(theta, 1e-12), 1.0 - 1e-12), mu_x, s, c)
    tau = 1.0 / (s.l_yx + (s.l_xx + mu_x + c.gamma))
    sigma = 1.0 / (2.0 * s.l_yy + s.l_yx)
    alpha = min(s.l_yx + s.l_yy, (1.0 - 1e-9) / sigma)
    return SapdParams(tau=tau, sigma=sigma, theta=1.0, rho=1.0, alpha=alpha,
                      mu_x=mu_x, n_inner=200)


def moreau_stationarity(p: ProblemSpec, x, lam: Optional[float] = None,
                        tol: float = 1e-8, max_calls: int = 400) -> StationarityEstimate:
    """Estimate ||grad phi_lam(x)|| for phi(x) = max_y f(x) + Phi(x,y) - g(y).

    Approximates prox_{lam phi}(x) by solving the shifted saddle problem
    min_w max_y L(w,y) + ||w - x||^2/(2 lam) with deterministic inner solves
    from (x, 0) (warm-started, last iterate carried) until the last-iterate
    step norm drops below tol.  Default lam = 1/(2 gamma).  A run that
    exhausts its budget is returned with reliable=False.
    """
    gamma = p.convexity.gamma
    lam = 1.0 / (2.0 * gamma) if lam is None else lam
    if not (0 < lam < 1.0 / gamma):
        raise ConfigurationError("lambda must lie in (0, 1/gamma)")
    x = np.asarray(x, dtype=float)
    mu_x = 1.0 / lam - gamma
    det = p.deterministic()
    sub = shifted_subproblem(det, x, mu_x)
    params = prox_solve_params(det, mu_x)

    w, y = x.copy(), np.zeros(p.m)
    total_iters = 0
    reliable = False
    for _ in range(max_calls):
        res = sapd_run(sub, params, w, y, rng=None, step_tol=tol)
        w, y = res.x_last, res.y_last
        total_iters += res.iterations
        if res.last_step_norm <= tol:
            reliable = True
            break
    value = float(np.linalg.norm(x - w)) / lam
    return StationarityEstimate(lam=lam, prox_point=w, value=value,
                                reliable=reliable, inner_iterations=total_iters)
