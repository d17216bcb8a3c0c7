"""Outer loop: inexact proximal-point stages, and dual smoothing for merely
concave problems.

Each stage t centers a quadratic shift at the current primal point and runs
the inner solver (plain or variance-reduced) for N iterations; the averaged
inner output seeds the next stage.  One loop, _staged, runs the stages of
one replica (sapd_plus_run) or of several with a plain schedule, each with
its own generator (sapd_plus_lockstep).  At each stage the replicas still
going run as one stack, but a lone replica runs on 1-D arrays: a stack of
one costs about 1.2 times as much (sapd module docstring).
"""

import math
import time
from dataclasses import InitVar, dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, DivergenceError, InfeasibleScheduleError
from .evaluation import moreau_stationarity
from .params import theorem1_schedule
from .problem import (ProblemSpec, SmoothnessConstants, add_quadratic,
                      shifted_subproblem)
from .sapd import SapdParams, sapd_run, takes_replica_stacks
from .vr import VrParams, vr_sapd_run


@dataclass(frozen=True)
class FixedT:
    """Run all t_outer stages."""


@dataclass(frozen=True)
class StationarityTarget:
    """Stop once a reliable Moreau stationarity estimate drops to epsilon.

    The estimate is evaluated after every check_every-th stage and after the
    last one; t_outer still caps the run.  On a strongly concave problem a
    check is a certified accelerated prox solve, a small fraction of a
    stage, so the default checks every stage; on a merely concave one it is
    a nested SAPD solve, which may cost more than a stage.
    """

    epsilon: float
    check_every: int = 1

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive")
        if self.check_every < 1:
            raise ConfigurationError("check_every must be >= 1")


@dataclass
class OuterConfig:
    """A VrParams schedule runs the variance-reduced inner solver."""

    t_outer: int
    schedule: Union[SapdParams, VrParams]
    # the schedule's type says the same; the keyword stays, and must agree
    # with it, until the next change to the benchmark (perfbench's dro-vr
    # passes vr=True)
    vr: InitVar[Optional[bool]] = None
    stop: Union[FixedT, StationarityTarget] = field(default_factory=FixedT)
    record_every: int = 1

    def __post_init__(self, vr):
        if self.t_outer < 0:
            raise ConfigurationError("t_outer must be nonnegative")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if not isinstance(self.schedule, (SapdParams, VrParams)):
            raise ConfigurationError("schedule must be a SapdParams or a VrParams")
        if vr is not None and vr != isinstance(self.schedule, VrParams):
            raise ConfigurationError(
                f"vr={vr} disagrees with a {type(self.schedule).__name__} schedule")


@dataclass
class StageRecord:
    """The iterates after a stage.  wall is the time.perf_counter() at which
    the outer loop kept the record, after its stationarity estimate."""

    stage: int
    oracle_calls: int  # cumulative single-sample-equivalent draws
    x: np.ndarray
    y: np.ndarray
    wall: float
    stationarity: Optional[float] = None


@dataclass
class OuterResult:
    x: np.ndarray
    y: np.ndarray
    stages_run: int
    oracle_calls: int
    stages: list


def sapd_plus_run(p: ProblemSpec, cfg: OuterConfig, x0, y0, rng,
                  fs=None) -> OuterResult:
    """Run the staged outer loop from the 1-D starts (x0, y0).

    A VrParams schedule runs vr_sapd_run, and then fs (a FiniteSumSpec of
    p's components) is required; a stage shifts p alone.  Each kept
    StageRecord carries the time.perf_counter() at which it was kept, after
    its stationarity estimate.  Oracle calls accumulate in single-sample
    draws (see the draws method of the schedule's type), so rng must be a
    Generator; None is refused.
    """
    if isinstance(cfg.schedule, VrParams) and fs is None:
        raise ConfigurationError("variance-reduced run needs a FiniteSumSpec")
    [out] = _staged(p, cfg, x0, y0, [rng], (), fs)
    if isinstance(out, DivergenceError):
        raise out
    return out


def sapd_plus_lockstep(p: ProblemSpec, cfg: OuterConfig, x0, y0, rngs) -> list:
    """sapd_plus_run for each generator of rngs, run in lockstep: the
    replicas still going run each stage as one replica stack.

    Replica r starts from row r of x0 and y0, or from x0 and y0 themselves
    when they are 1-D, and draws from rngs[r].  Returns, per replica, the
    OuterResult that sapd_plus_run(p, cfg, x0[r], y0[r], rngs[r]) returns,
    or the DivergenceError it raises, with the same stage, iteration,
    replica (None) and message; the iterates and records agree bit for bit,
    and only the wall times of the records differ.  The schedule must be a
    SapdParams and p must take replica stacks (sapd.takes_replica_stacks).
    """
    if not isinstance(cfg.schedule, SapdParams) or not takes_replica_stacks(p):
        raise ConfigurationError("a lockstep run needs a SapdParams schedule and "
                                 "oracles and prox maps that take replica stacks")
    return _staged(p, cfg, x0, y0, rngs, (len(rngs),))


def _staged(p: ProblemSpec, cfg: OuterConfig, x0, y0, rngs, rows, fs=None) -> list:
    """The staged loop of replica r drawing from rngs[r], for every r; returns
    the OuterResult of each replica, or the DivergenceError that ended it.

    x0 and y0 are 1-D starts that every replica shares, or stacks of shape
    rows + (n,) and rows + (m,): rows is () for one run and (R,) for a
    lockstep run of R replicas.  A replica whose target is met leaves after
    that stage.  One that diverges leaves at once, and the stage runs again
    for the others from its start, their generators set back to the states
    they had there.
    """
    sched = cfg.schedule
    if any(rng is None for rng in rngs):
        raise ConfigurationError("a staged run draws its gradients: every replica "
                                 "needs a Generator, not None")
    for z0, size in ((x0, p.n), (y0, p.m)):
        if np.shape(z0) not in ((size,), rows + (size,)):
            raise ConfigurationError(f"a start of shape {np.shape(z0)} for {len(rngs)} "
                                     f"replica(s) of a problem with n = {p.n}, m = {p.m}")
    x, y = np.empty((len(rngs), p.n)), np.empty((len(rngs), p.m))
    x[...], y[...] = x0, y0
    stages = [[StageRecord(0, 0, x[r].copy(), y[r].copy(), time.perf_counter())]
              for r in range(len(rngs))]
    out = [None] * len(rngs)
    going = list(range(len(rngs)))  # the replica of each row of x and y
    calls = 0

    def result(row, r):
        return OuterResult(x=x[row].copy(), y=y[row].copy(), stages_run=stages[r][-1].stage,
                           oracle_calls=calls, stages=stages[r])

    for t in range(cfg.t_outer):
        # a lone replica saves no state: nothing runs again after it
        saved = [rngs[r].bit_generator.state for r in going] if len(going) > 1 else None
        res = None
        while going and res is None:
            try:
                res = _stage(p, sched, x, y, [rngs[r] for r in going], fs)
            except DivergenceError as err:
                row = err.replica or 0  # None from a lone replica
                err.stage, err.replica = t, None
                out[going.pop(row)] = err
                if going:
                    del saved[row]
                    x, y = np.delete(x, row, axis=0), np.delete(y, row, axis=0)
                    for r, state in zip(going, saved):
                        rngs[r].bit_generator.state = state
        if not going:
            break
        x, y, iterations = res
        calls += sched.draws(iterations, p.oracle_batch)
        last = t + 1 == cfg.t_outer
        check = isinstance(cfg.stop, StationarityTarget) and (
            (t + 1) % cfg.stop.check_every == 0 or last)
        keep = last or (t + 1) % cfg.record_every == 0
        staying = []
        for row, r in enumerate(going):
            stat, met = None, False
            if check:
                est = moreau_stationarity(p, x[row])
                stat, met = est.value, est.reliable and est.value <= cfg.stop.epsilon
            if met or keep:
                stages[r].append(StageRecord(t + 1, calls, x[row].copy(), y[row].copy(),
                                             time.perf_counter(), stat))
            if met:
                out[r] = result(row, r)
            else:
                staying.append(row)
        if len(staying) < len(going):
            going, x, y = [going[row] for row in staying], x[staying], y[staying]
    for row, r in enumerate(going):
        out[r] = result(row, r)
    return out


def _stage(p: ProblemSpec, sched, x, y, rngs, fs):
    """One stage of the replicas drawing from rngs, from the rows of x and
    y: (averaged x rows, averaged y rows, inner iterations).  Two or more
    replicas run as one stack; a lone one runs on 1-D arrays, which are
    faster than a stack of one, and gets its row back."""
    if len(rngs) > 1:
        res = sapd_run(shifted_subproblem(p, x, sched.mu_x), sched, x, y, rngs)
        return res.x_avg, res.y_avg, res.iterations
    sub = shifted_subproblem(p, x[0], sched.mu_x)
    if isinstance(sched, VrParams):
        res = vr_sapd_run(fs, sub, sched, x[0], y[0], rngs[0])
    else:
        res = sapd_run(sub, sched, x[0], y[0], rngs[0])
    return res.x_avg[None], res.y_avg[None], res.iterations


def smoothing_mu_hat(epsilon: float, gamma: float, d_y: float,
                     l_yy: float, l_xy: float) -> float:
    """mu_hat = min{eps^2/(24 gamma d_y^2), (l_yy/l_xy) eps/(2 sqrt(6) d_y)}.

    The second term vanishes with l_yy (it stems from a 1/l_yy prox step in
    the derivation); in that case only the first term applies.  Raises
    ConfigurationError for an epsilon or d_y that is not a positive float,
    and InfeasibleScheduleError where mu_hat underflows to 0.
    """
    if epsilon <= 0 or d_y is None or not np.isfinite(d_y) or d_y <= 0:
        raise ConfigurationError("need epsilon > 0 and a finite dual diameter")
    mu_hat = epsilon**2 / (24.0 * gamma * d_y**2)
    if l_yy != 0:
        mu_hat = min(mu_hat, (l_yy / l_xy) * epsilon / (2.0 * math.sqrt(6.0) * d_y))
    if not mu_hat > 0:
        raise InfeasibleScheduleError(
            f"smoothing mu_hat underflows to 0 at eps = {epsilon:.6g}")
    return mu_hat


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


def smooth_then_solve(p: ProblemSpec, epsilon: float, x0, y0, rng):
    """Merely-concave path: smooth the dual, then run the staged solver.

    Requires mu_y = 0, f = 0, and a finite dual diameter on p.  The dual is
    smoothed around y0 with mu_hat from the closed-form rule; the inner
    schedule is the certified closed-form one for the smoothed constants at
    target epsilon/(2 sqrt(6)) with gap0 = 1, run for its T stages or until
    that target is met, checked after every stage (the smoothed problem is
    strongly concave, so each check is a certified accelerated prox solve).
    Returns (OuterResult, mu_hat).
    """
    smoothed, cfg, mu_hat = _smoothing_plan(p, epsilon, y0)
    return sapd_plus_run(smoothed, cfg, x0, y0, rng), mu_hat


def _smoothing_plan(p: ProblemSpec, epsilon: float, y0):
    """(smoothed problem, OuterConfig, mu_hat) that smooth_then_solve runs."""
    if p.convexity.mu_y != 0:
        raise ConfigurationError("smooth_then_solve is for merely concave problems")
    if p.d_y is None:
        raise ConfigurationError("dual diameter d_y required for smoothing")
    s = p.smoothness
    mu_hat = smoothing_mu_hat(epsilon, p.convexity.gamma, p.d_y, s.l_yy, s.l_xy)
    smoothed = smooth_dual(p, mu_hat, y0)
    eps_inner = epsilon / (2.0 * math.sqrt(6.0))
    sched = theorem1_schedule(smoothed.smoothness, smoothed.convexity,
                              smoothed.noise, eps_inner, 1.0)
    cfg = OuterConfig(t_outer=sched.t_outer, schedule=sched.sapd_params(),
                      stop=StationarityTarget(epsilon=eps_inner))
    return smoothed, cfg, mu_hat
