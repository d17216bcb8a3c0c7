"""The four benchmark workloads.

Each workload builds its instance and certified schedule (``setup``), draws
the inputs of one solve from a SeedSequence (``inputs``), runs the solve
(``solve``) and checks it (``start_failures``, ``check``).  The program only
receives the drawn inputs.  A solve returns one ``Rep`` per repetition.

Why these workloads:
- quad-wcsc: stochastic time-to-epsilon with an exact closed-form
  reference; per-call overhead dominates (inner loop, guard, tiny oracles).
- bilinear-wcmc: the only merely-concave workload, so the only one on the
  dual-smoothing path; n = m = 1 makes it pure interpreter overhead.
- dro-sapd-cli: the user-facing ``sapdplus solve`` path, timed from
  outside, with its thread pool, objective evaluation and CSV output.
- dro-vr: the only workload that runs the variance-reduced inner solver;
  large refresh batches next to paired small-batch differences.
"""

import contextlib
import csv
import dataclasses
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from sapdplus import (DivergenceError, FixedT, OuterConfig, SapdParams,
                      StationarityTarget, build_lmi, build_vr_lmi, cli,
                      datasets, moreau_stationarity, sapd_plus_run,
                      smooth_then_solve, theorem1_schedule, vr_schedule)
from sapdplus.outer import smooth_dual, smoothing_mu_hat
from sapdplus.problem import with_gaussian_noise

import tracing

clock = time.perf_counter

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 20220530
REFERENCE_TOL = 1e-12
START_FACTOR = 10.0  # a time-to-epsilon rep must start at >= 10 * epsilon
AGREE_FACTOR = 1e-3  # |in-solver estimate - closed form| <= 1e-3 * epsilon


@dataclasses.dataclass
class Setup:
    problem: object
    params: object
    certificate: object
    instance_s: float
    schedule_s: float
    lmi_s: float
    theory_n_inner: int
    theory_vr_b: int = 0
    instance: object = None
    finite_sum: object = None


@dataclasses.dataclass
class Rep:
    """One repetition of a solve."""

    draws: int
    stages: int
    iterations: int
    wall_s: float
    interval: tuple = ()  # (start, end) perf_counter of the span wall_s was timed in
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    final_stationarity: Optional[float] = None
    objective: float = math.nan  # CLI: objective at the last trace row
    wall_ms: tuple = ()  # CLI: the trace's wall_ms column
    row_keys: tuple = ()  # CLI: the trace rows minus wall_ms
    failures: list = dataclasses.field(default_factory=list)


def _timed_steps(*steps):
    """Run the callables in order; returns (results, seconds per step)."""
    results, seconds = [], []
    for step in steps:
        t = clock()
        results.append(step(*results))
        seconds.append(clock() - t)
    return results, seconds


def _span(tracer, name, meta=None):
    return tracer.span(name, meta) if tracer else contextlib.nullcontext()


def _dro_instance(sgrad_batch):
    ds = datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    return datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=1.0 / 1000**2,
                              sgrad_batch=sgrad_batch)


def _load_reference(name):
    return json.loads(REFERENCE_FILE.read_text())[name]


def _iterate_failures(x, ref):
    diff = float(np.max(np.abs(np.asarray(x) - np.asarray(ref["x"]))))
    return [] if diff <= REFERENCE_TOL else [
        f"reference iterate differs by {diff:.3g} (> {REFERENCE_TOL:g})"]


class Workload:
    name = ""
    eps = 0.0
    reps_per_solve = 1
    # a run makes at least count_solves solves; counts come from these only,
    # so they repeat exactly for a seed
    count_solves = 3
    time_to_eps = False

    def start_failures(self, setup, inputs):
        return [[] for _ in range(self.reps_per_solve)]

    def reference_failures(self, setup):
        return []

    def start_diagnostic(self, setup, inputs):
        """Start stationarity of the first rep's start point."""
        return None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def same_result(self, a, b):
        return len(a) == len(b) and all(
            np.array_equal(ra.x, rb.x) and np.array_equal(ra.y, rb.y) for ra, rb in zip(a, b))

    def _api_solve(self, setup, inputs, tracer, run):
        """One Rep per (x0, seed) input; ``run(x0, rng)`` returns an OuterResult."""
        reps = []
        for x0, kid in inputs:
            t = clock()
            try:
                with _span(tracer, "rep", {}):
                    res = run(x0, np.random.default_rng(kid))
            except DivergenceError as err:
                end = clock()
                reps.append(Rep(draws=0, stages=0, iterations=0, wall_s=end - t,
                                interval=(t, end), failures=[f"diverged: {err}"]))
                continue
            end = clock()
            reps.append(Rep(draws=res.oracle_calls, stages=res.stages_run,
                            iterations=res.stages_run * setup.params.n_inner,
                            wall_s=end - t, interval=(t, end), x=res.x, y=res.y,
                            final_stationarity=res.stages[-1].stationarity))
        return reps


class TimeToEps(Workload):
    """A workload whose reps stop at an epsilon target and have a closed form."""

    time_to_eps = True
    lam = 0.5  # 1 / (2 gamma), the stop rule's default
    stop_eps = 0.0  # the target the in-solver estimate stops at

    def exact_stationarity(self, setup, x):
        raise NotImplementedError

    def start_failures(self, setup, inputs):
        out = []
        for x0, _ in inputs:
            start = self.exact_stationarity(setup, x0)
            out.append([] if start >= START_FACTOR * self.eps else
                       [f"start stationarity {start:.3g} below {START_FACTOR:g} eps"])
        return out

    def start_diagnostic(self, setup, inputs):
        return self.exact_stationarity(setup, inputs[0][0])

    def check(self, setup, inputs, reps):
        for rep in reps:
            if rep.failures:
                continue
            estimate = rep.final_stationarity
            exact = self.exact_stationarity(setup, rep.x)
            rep.final_stationarity = exact
            if estimate is None or estimate > self.stop_eps:
                rep.failures.append("did not reach its stop target")
            elif abs(estimate - exact) > AGREE_FACTOR * self.eps:
                rep.failures.append(f"estimate {estimate:.6g} disagrees with closed form {exact:.6g}")
            if exact > self.eps:
                rep.failures.append(f"closed-form final stationarity {exact:.3g} > eps")


class QuadWcsc(TimeToEps):
    """sapd_plus_run on a noisy weakly-convex/strongly-concave quadratic."""

    name = "quad-wcsc"
    eps = stop_eps = 0.05
    reps_per_solve = 16
    count_solves = 6
    stage_cap = 400

    def setup(self):
        def instance():
            qs = datasets.make_quadratic_saddle(10, 5, 1.0, 0.5, np.random.default_rng(7))
            return qs, with_gaussian_noise(qs.problem, 0.1, 0.1)

        def schedule(inst):
            p = inst[1]
            s, c = p.smoothness, p.convexity
            theta = 0.95
            tau = (1.0 - theta) / c.gamma
            sigma = (1.0 - theta) / (c.mu_y * theta)
            alpha = 1.0 / sigma - math.sqrt(theta) * s.l_yy
            return SapdParams(tau=tau, sigma=sigma, theta=theta, rho=theta,
                              alpha=alpha, mu_x=c.gamma, n_inner=200)

        def certificate(inst, sp):
            p = inst[1]
            return build_lmi(sp.tau, sp.sigma, sp.theta, sp.rho, sp.alpha, sp.mu_x,
                             p.smoothness, p.convexity)

        (inst, params, cert), secs = _timed_steps(instance, schedule, certificate)
        p = inst[1]
        theory = theorem1_schedule(p.smoothness, p.convexity, p.noise, self.eps, 1.0)
        return Setup(problem=p, params=params, certificate=cert, instance_s=secs[0],
                     schedule_s=secs[1], lmi_s=secs[2], instance=inst[0],
                     theory_n_inner=theory.n_inner)

    def inputs(self, ss):
        kids = ss.spawn(1 + self.reps_per_solve)
        rng = np.random.default_rng(kids[0])
        x0s = []
        for _ in range(self.reps_per_solve):
            x0 = rng.standard_normal(10)
            x0s.append(x0 * (math.sqrt(10) / np.linalg.norm(x0)))
        return list(zip(x0s, kids[1:]))

    def exact_stationarity(self, setup, x):
        return float(np.linalg.norm(setup.instance.moreau_grad(x, self.lam)))

    def solve(self, setup, inputs, tracer=None, in_process=False):
        p = tracing.traced_problem(tracer, setup.problem) if tracer else setup.problem
        cfg = OuterConfig(t_outer=self.stage_cap, schedule=setup.params,
                          stop=StationarityTarget(self.eps, check_every=5))
        return self._api_solve(setup, inputs, tracer,
                               lambda x0, rng: sapd_plus_run(p, cfg, x0, np.zeros(p.m), rng))


class BilinearWcmc(TimeToEps):
    """smooth_then_solve on the bilinear box toy, default certified schedule.

    The in-solver estimate is of the smoothed problem, which smooth_then_solve
    stops at eps / (2 sqrt 6); the closed form is of the original problem.
    """

    name = "bilinear-wcmc"
    eps = 1.0
    stop_eps = eps / (2.0 * math.sqrt(6.0))

    def setup(self):
        def instance():
            return datasets.make_bilinear_box_toy(c=10.0)

        def schedule(toy):
            # the same smoothing and closed-form schedule smooth_then_solve derives
            p, s = toy.problem, toy.problem.smoothness
            mu_hat = smoothing_mu_hat(self.eps, p.convexity.gamma, p.d_y, s.l_yy, s.l_xy)
            smoothed = smooth_dual(p, mu_hat, np.zeros(p.m))
            sched = theorem1_schedule(smoothed.smoothness, smoothed.convexity,
                                      smoothed.noise, self.stop_eps, 1.0)
            return smoothed, sched

        def certificate(toy, sm):
            smoothed, sched = sm
            return build_lmi(sched.tau, sched.sigma, sched.theta, sched.rho, sched.alpha,
                             sched.mu_x, smoothed.smoothness, smoothed.convexity)

        (toy, (_, sched), cert), secs = _timed_steps(instance, schedule, certificate)
        return Setup(problem=toy.problem, params=sched.sapd_params(), certificate=cert,
                     instance_s=secs[0], schedule_s=secs[1], lmi_s=secs[2],
                     instance=toy, theory_n_inner=sched.n_inner)

    def inputs(self, ss):
        kids = ss.spawn(2)
        rng = np.random.default_rng(kids[0])
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return [(np.array([sign * rng.uniform(6.0, 10.0)]), kids[1])]

    def exact_stationarity(self, setup, x):
        return setup.instance.moreau_grad_norm(x, self.lam)

    def solve(self, setup, inputs, tracer=None, in_process=False):
        p = tracing.traced_problem(tracer, setup.problem) if tracer else setup.problem
        return self._api_solve(
            setup, inputs, tracer,
            lambda x0, rng: smooth_then_solve(p, self.eps, x0, np.zeros(p.m), rng)[0])


class DroVr(Workload):
    """sapd_plus_run(vr=True) on synthetic DRO; full-data refresh batches."""

    name = "dro-vr"
    eps = 0.05
    t_outer = 60

    def setup(self):
        def schedule(inst):
            p = inst.problem
            with warnings.catch_warnings():
                # the theory batch b = 1 sits below b_x = b_y = 10 and warns
                warnings.simplefilter("ignore", UserWarning)
                theory, _, _ = vr_schedule(p.smoothness, p.convexity, p.noise,
                                           self.eps, 1.0, q=10, b_x=10, b_y=10)
            used = dataclasses.replace(theory, b=inst.finite_sum.n_comp, n_inner=200)
            return theory, used

        def certificate(inst, sched):
            p, v = inst.problem, sched[1]
            return build_vr_lmi(v.tau, v.sigma, v.q, v.b_x, v.b_y, v.mu_x,
                                p.smoothness, p.convexity)

        (inst, (theory, params), cert), secs = _timed_steps(
            lambda: _dro_instance(1), schedule, certificate)
        return Setup(problem=inst.problem, params=params, certificate=cert,
                     instance_s=secs[0], schedule_s=secs[1], lmi_s=secs[2],
                     instance=inst, finite_sum=inst.finite_sum,
                     theory_n_inner=theory.n_inner, theory_vr_b=theory.b)

    def inputs(self, ss):
        kids = ss.spawn(2)
        return [(np.random.default_rng(kids[0]).standard_normal(20), kids[1])]

    def start_diagnostic(self, setup, inputs):
        return moreau_stationarity(setup.problem, inputs[0][0]).value

    def solve(self, setup, inputs, tracer=None, in_process=False):
        p, fs = setup.problem, setup.finite_sum
        if tracer:
            p, fs = tracing.traced_problem(tracer, p), tracing.traced_finite_sum(tracer, fs)
        cfg = OuterConfig(t_outer=self.t_outer, schedule=setup.params, vr=True)
        y0 = np.full(p.m, 1.0 / p.m)
        return self._api_solve(setup, inputs, tracer,
                               lambda x0, rng: sapd_plus_run(p, cfg, x0, y0, rng, fs=fs))

    def check(self, setup, inputs, reps):
        for rep in reps:
            if rep.failures:
                continue
            if rep.stages != self.t_outer or not np.all(np.isfinite(rep.x)):
                rep.failures.append(f"stopped at stage {rep.stages} with a non-finite iterate")
            else:
                rep.final_stationarity = moreau_stationarity(setup.problem, rep.x).value

    def reference_iterate(self, setup):
        return self.solve(setup, self.inputs(np.random.SeedSequence(REFERENCE_SEED)))[0].x

    def reference_failures(self, setup):
        return _iterate_failures(self.reference_iterate(setup), _load_reference(self.name))


class DroSapdCli(Workload):
    """``sapdplus solve --problem dro`` timed from outside as a subprocess."""

    name = "dro-sapd-cli"
    eps = 0.05  # the CLI default
    t_outer = 20
    reps_per_solve = 4
    batch = 10

    def __init__(self, root):
        self.root = Path(root)

    def setup(self):
        def schedule(inst):
            p = inst.problem
            return theorem1_schedule(p.smoothness, p.convexity, p.noise, self.eps, 1.0)

        def certificate(inst, sched):
            p = inst.problem
            return build_lmi(sched.tau, sched.sigma, sched.theta, sched.rho, sched.alpha,
                             sched.mu_x, p.smoothness, p.convexity)

        (inst, sched, cert), secs = _timed_steps(
            lambda: _dro_instance(self.batch), schedule, certificate)
        return Setup(problem=inst.problem, params=sched.sapd_params(), certificate=cert,
                     instance_s=secs[0], schedule_s=secs[1], lmi_s=secs[2],
                     instance=inst, theory_n_inner=sched.n_inner)

    def inputs(self, ss):
        return int(ss.generate_state(1)[0])

    def start_diagnostic(self, setup, inputs):
        # the CLI starts every rep at x0 = 0
        return moreau_stationarity(setup.problem, np.zeros(setup.problem.n)).value

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _argv(self, seed, reps, out):
        return ["solve", "--problem", "dro", "--batch", str(self.batch),
                "--reps", str(reps), "--t-outer", str(self.t_outer),
                "--stat-every", "0", "--seed", str(seed), "--out", str(out)]

    def run_cli(self, seed, reps, in_process=False):
        """Run the CLI once; returns (wall seconds, trace rows, meta text)."""
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=self.root)
        try:
            out = Path(tmp) / "trace.csv"
            argv = self._argv(seed, reps, out)
            if in_process:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    t = clock()
                    code = cli.main(argv)
                    wall = clock() - t
            else:
                env = dict(os.environ)
                src = str(self.root / "src")
                env["PYTHONPATH"] = os.pathsep.join(
                    [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
                t = clock()
                proc = subprocess.run([sys.executable, "-m", "sapdplus.cli", *argv],
                                      cwd=tmp, env=env, capture_output=True, text=True,
                                      timeout=150)
                wall = clock() - t
                code = proc.returncode
                if code != 0:
                    sys.stderr.write(proc.stderr)
            if code != 0:
                raise RuntimeError(f"sapdplus solve exited with {code}")
            with out.open() as f:
                rows = list(csv.DictReader(f))
            meta = Path(str(out) + ".meta.txt").read_text()
            return wall, rows, meta
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def solve(self, setup, inputs, tracer=None, in_process=False):
        start = clock()
        wall, rows, meta = self.run_cli(inputs, self.reps_per_solve,
                                        in_process or tracer is not None)
        interval = (start, clock())
        reps = []
        for r in range(self.reps_per_solve):
            mine = [row for row in rows if int(row["rep"]) == r]
            last = mine[-1] if mine else {"stage": 0, "oracle_calls": 0, "objective": "nan"}
            stages = int(last["stage"])
            # reps share a thread pool and are only timed together
            rep = Rep(draws=int(last["oracle_calls"]), stages=stages,
                      iterations=stages * setup.params.n_inner,
                      wall_s=wall / self.reps_per_solve, interval=interval,
                      objective=float(last["objective"]),
                      wall_ms=tuple(float(row["wall_ms"]) for row in mine),
                      row_keys=tuple((row["stage"], row["oracle_calls"], row["objective"],
                                      row["stationarity"]) for row in mine))
            if f"note = rep {r} diverged" in meta:
                rep.failures.append("diverged")
            reps.append(rep)
        return reps

    def check(self, setup, inputs, reps):
        for rep in reps:
            if rep.stages != self.t_outer or len(rep.row_keys) != self.t_outer + 1:
                rep.failures.append(f"trace ends at stage {rep.stages}")
            if not math.isfinite(rep.objective):
                rep.failures.append("non-finite objective")

    def same_result(self, a, b):
        return [r.row_keys for r in a] == [r.row_keys for r in b]

    def reference_iterate(self, setup):
        """The CLI's rep 0 at the reference seed, replayed through the API."""
        p = setup.problem
        cfg = OuterConfig(t_outer=self.t_outer, schedule=setup.params, stop=FixedT())
        return sapd_plus_run(p, cfg, np.zeros(p.n), np.full(p.m, 1.0 / p.m),
                             np.random.default_rng(REFERENCE_SEED)).x

    def reference_failures(self, setup):
        ref = _load_reference(self.name)
        fails = _iterate_failures(self.reference_iterate(setup), ref)
        _, rows, _ = self.run_cli(REFERENCE_SEED, 1)
        objective = float(rows[-1]["objective"])
        if not abs(objective - ref["objective"]) <= REFERENCE_TOL * abs(ref["objective"]):
            fails.append(f"CLI rep-0 objective {objective!r} != reference {ref['objective']!r}")
        return fails


def make(name, root):
    workloads = {w.name: w for w in (QuadWcsc(), BilinearWcmc(), DroVr(), DroSapdCli(root))}
    return workloads[name]


NAMES = ("quad-wcsc", "bilinear-wcmc", "dro-sapd-cli", "dro-vr")
