"""Outer loop: inexact proximal-point stages, dual smoothing for merely
concave problems, and the gradient-mapping refinement step.

Each stage t centers a quadratic shift at the current primal point and runs
the inner solver (plain or variance-reduced) for N iterations; the averaged
inner output seeds the next stage.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .evaluation import moreau_stationarity, prox_solve_params
from .params import theorem1_schedule
from .problem import (ProblemSpec, SmoothnessConstants, add_quadratic,
                      shifted_finite_sum, shifted_subproblem)
from .sapd import SapdParams, inner_draws, sapd_run
from .vr import VrParams, vr_sapd_run


@dataclass(frozen=True)
class FixedT:
    """Run all t_outer stages."""


@dataclass(frozen=True)
class StationarityTarget:
    """Stop once the Moreau stationarity estimate drops to epsilon.

    The estimate needs a nested solve, so it is only evaluated every
    check_every stages; t_outer still caps the run.
    """

    epsilon: float
    check_every: int = 10
    lam: Optional[float] = None
    tol: float = 1e-8


@dataclass
class OuterConfig:
    t_outer: int
    schedule: Union[SapdParams, VrParams]
    vr: bool = False
    stop: Union[FixedT, StationarityTarget] = field(default_factory=FixedT)
    record_every: int = 1

    def __post_init__(self):
        if self.t_outer < 0:
            raise ConfigurationError("t_outer must be nonnegative")
        if self.vr and not isinstance(self.schedule, VrParams):
            raise ConfigurationError("vr=True requires a VrParams schedule")
        if not self.vr and not isinstance(self.schedule, SapdParams):
            raise ConfigurationError("vr=False requires a SapdParams schedule")


@dataclass
class StageRecord:
    stage: int
    oracle_calls: int  # cumulative single-sample-equivalent draws
    x: np.ndarray
    y: np.ndarray
    stationarity: Optional[float] = None


@dataclass
class OuterResult:
    x: np.ndarray
    y: np.ndarray
    stages_run: int
    oracle_calls: int
    stages: list
    stopped_early: bool = False


def sapd_plus_run(p: ProblemSpec, cfg: OuterConfig, x0, y0, rng,
                  fs=None, on_stage: Optional[Callable] = None) -> OuterResult:
    """Run the staged outer loop from (x0, y0).

    fs (a FiniteSumSpec) is required when cfg.vr is set.  on_stage, if
    given, is called with each StageRecord as it is produced.  Oracle calls
    accumulate in single-sample draws (see inner_draws).
    """
    if cfg.vr and fs is None:
        raise ConfigurationError("variance-reduced run needs a FiniteSumSpec")
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    sched = cfg.schedule
    calls = 0
    stages = [StageRecord(stage=0, oracle_calls=0, x=x.copy(), y=y.copy())]
    if on_stage:
        on_stage(stages[0])
    stopped_early = False
    for t in range(cfg.t_outer):
        sub = shifted_subproblem(p, x, sched.mu_x)
        try:
            if cfg.vr:
                sub_fs = shifted_finite_sum(fs, x, sched.mu_x + p.convexity.gamma)
                res = vr_sapd_run(sub_fs, sub, sched, x, y, rng)
            else:
                res = sapd_run(sub, sched, x, y, rng)
        except DivergenceError as err:
            err.stage = t
            raise
        calls += inner_draws(sched, res.iterations, p.oracle_batch)
        x, y = res.x_avg, res.y_avg
        record = StageRecord(stage=t + 1, oracle_calls=calls, x=x.copy(), y=y.copy())
        if isinstance(cfg.stop, StationarityTarget) and (
            (t + 1) % cfg.stop.check_every == 0 or t + 1 == cfg.t_outer
        ):
            est = moreau_stationarity(p, x, lam=cfg.stop.lam, tol=cfg.stop.tol)
            record.stationarity = est.value
            if est.reliable and est.value <= cfg.stop.epsilon:
                stopped_early = t + 1 < cfg.t_outer
                stages.append(record)
                if on_stage:
                    on_stage(record)
                break
        if (t + 1) % cfg.record_every == 0 or t + 1 == cfg.t_outer:
            stages.append(record)
            if on_stage:
                on_stage(record)
    return OuterResult(x=x, y=y, stages_run=(stages[-1].stage if stages else 0),
                       oracle_calls=calls, stages=stages,
                       stopped_early=stopped_early)


@dataclass(frozen=True)
class SmoothingConfig:
    mu_hat_y: float
    anchor: np.ndarray
    d_y: float

    def __post_init__(self):
        if self.mu_hat_y <= 0:
            raise ConfigurationError("mu_hat_y must be positive")


def smoothing_mu_hat(epsilon: float, gamma: float, d_y: float,
                     l_yy: float, l_xy: float) -> float:
    """mu_hat = min{eps^2/(24 gamma d_y^2), (l_yy/l_xy) eps/(2 sqrt(6) d_y)}.

    The second term vanishes with l_yy (it stems from a 1/l_yy prox step in
    the derivation); in that case only the first term applies.
    """
    if epsilon <= 0 or d_y is None or not np.isfinite(d_y) or d_y <= 0:
        raise ConfigurationError("need epsilon > 0 and a finite dual diameter")
    first = epsilon**2 / (24.0 * gamma * d_y**2)
    if l_yy == 0:
        return first
    return min(first, (l_yy / l_xy) * epsilon / (2.0 * math.sqrt(6.0) * d_y))


def smooth_dual(p: ProblemSpec, mu_hat: float, anchor) -> ProblemSpec:
    """Subtract (mu_hat/2)||y - anchor||^2 from the coupling.

    The dual gradient shifts by -mu_hat (y - anchor); l_yy grows by mu_hat
    and the smoothed coupling is mu_hat-strongly concave in y.
    """
    s = p.smoothness
    return add_quadratic(
        p, "y", -mu_hat, anchor, convexity=replace(p.convexity, mu_y=mu_hat),
        smoothness=SmoothnessConstants(s.l_xx, s.l_xy, s.l_yx, s.l_yy + mu_hat),
    )


def smooth_then_solve(p: ProblemSpec, epsilon: float, x0, y0, rng,
                      anchor=None, gap0: float = 1.0,
                      schedule: Optional[SapdParams] = None,
                      t_outer: Optional[int] = None,
                      stop: Optional[Union[FixedT, StationarityTarget]] = None
                      ):
    """Merely-concave path: smooth the dual, then run the staged solver.

    Requires mu_y = 0, f = 0, and a finite dual diameter on p.  mu_hat comes
    from the closed-form rule at inner target epsilon/(2 sqrt(6)); by
    default the inner schedule is the certified closed-form one for the
    smoothed constants.  Returns (OuterResult, SmoothingConfig).
    """
    if p.convexity.mu_y != 0:
        raise ConfigurationError("smooth_then_solve is for merely concave problems")
    if p.d_y is None:
        raise ConfigurationError("dual diameter d_y required for smoothing")
    y0 = np.asarray(y0, dtype=float)
    anchor = y0 if anchor is None else np.asarray(anchor, dtype=float)
    s = p.smoothness
    mu_hat = smoothing_mu_hat(epsilon, p.convexity.gamma, p.d_y, s.l_yy, s.l_xy)
    smoothed = smooth_dual(p, mu_hat, anchor)
    eps_inner = epsilon / (2.0 * math.sqrt(6.0))
    if schedule is None:
        sched = theorem1_schedule(smoothed.smoothness, smoothed.convexity,
                                  smoothed.noise, eps_inner, gap0)
        params = sched.sapd_params()
        cap = sched.t_outer if t_outer is None else t_outer
    else:
        params = schedule
        if t_outer is None:
            raise ConfigurationError("manual schedule needs t_outer")
        cap = t_outer
    if stop is None:
        stop = StationarityTarget(epsilon=eps_inner, check_every=10)
    cfg = OuterConfig(t_outer=cap, schedule=params, vr=False, stop=stop)
    result = sapd_plus_run(smoothed, cfg, x0, y0, rng)
    return result, SmoothingConfig(mu_hat_y=mu_hat, anchor=anchor, d_y=p.d_y)


def dual_maximize(p: ProblemSpec, x, y0, tol: float = 1e-10,
                  max_iter: int = 200000):
    """High-accuracy solve of max_y Phi(x, y) - g(y) by prox-gradient ascent.

    Returns (y, converged).  Step 1/(l_yy + mu_y) when mu_y > 0 gives a
    linear rate; with mu_y = 0 the fixed-point residual criterion still
    applies but convergence is not guaranteed.
    """
    s, c = p.smoothness, p.convexity
    step = 1.0 / max(s.l_yy + c.mu_y, 1e-12)
    y = np.array(y0, dtype=float)
    for _ in range(max_iter):
        y_new = p.prox_g(y + step * p.grad_y(x, y), step)
        if float(np.linalg.norm(y_new - y)) <= tol * step:
            return y_new, True
        y = y_new
    return y, False


def refine_to_gradient_mapping(p: ProblemSpec, x_eps, lam: float, rng,
                               budget_factor: int = 10,
                               dual_tol: float = 1e-10):
    """From a Moreau-near-stationary x_eps, produce x_tilde with a small
    generalized gradient mapping norm.

    Runs one extended inner solve on the shift centered at x_eps (the shift
    modulus is 1/lam - gamma, so the quadratic coefficient is 1/(2 lam)),
    then evaluates ||G_lam(x_tilde)|| = ||x_tilde - prox_{lam f}(x_tilde -
    lam * grad phi_s(x_tilde))|| / lam, where grad phi_s comes from a
    high-accuracy inner maximization.  Returns (x_tilde, mapping_norm,
    reliable).
    """
    gamma = p.convexity.gamma
    if not (0 < lam < 1.0 / gamma):
        raise ConfigurationError("lambda must lie in (0, 1/gamma)")
    x_eps = np.asarray(x_eps, dtype=float)
    mu_x = 1.0 / lam - gamma
    det = p.deterministic() if p.noise.delta_x == 0 and p.noise.delta_y == 0 else p
    sub = shifted_subproblem(det, x_eps, mu_x)
    params = prox_solve_params(det, mu_x)
    params = replace(params, n_inner=params.n_inner * budget_factor)
    res = sapd_run(sub, params, x_eps, np.zeros(p.m), rng)
    x_tilde = res.x_last

    y_star, converged = dual_maximize(det, x_tilde, np.zeros(p.m), tol=dual_tol)
    grad_s = det.grad_x(x_tilde, y_star)
    mapped = p.prox_f(x_tilde - lam * grad_s, lam)
    mapping_norm = float(np.linalg.norm(x_tilde - mapped)) / lam
    return x_tilde, mapping_norm, converged
