"""Benchmark harness: config parsing, solver dispatch, CSV traces.

Subcommands:
  check-params   print a certified schedule and its matrix certificate
  solve          run one configuration for several seeds, write a CSV trace
  bench          run a list of config files in sequence

Config files are flat ``key = value`` text with ``#`` comments; CLI flags
override file values.  The reps of a `solve` run serially, in rep order.
Traces have the fixed header
``rep,stage,oracle_calls,wall_ms,objective,stationarity`` and a sidecar
``<out>.meta.txt`` with everything needed to reproduce the run.
``wall_ms`` is stamped when each stage record is produced, so it excludes
the objective evaluation that fills the row.
"""

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datasets
from .errors import ConfigurationError, DivergenceError
from .outer import FixedT, OuterConfig, StationarityTarget, sapd_plus_run
from .params import (build_lmi, build_vr_lmi, theorem1_schedule,
                     theta_noise_floor, vr_schedule)
from .problem import ConvexityModuli, NoiseLevels, SmoothnessConstants
from .sapd import SapdParams
from .vr import VrParams

TRACE_HEADER = "rep,stage,oracle_calls,wall_ms,objective,stationarity"


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; later keys win."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


@dataclass
class RunConfig:
    """Resolved configuration for one `solve` invocation."""

    problem: str = "quadratic"
    algo: str = "sapd-plus"
    schedule: str = "theory"
    seed: int = 1234
    reps: int = 1
    eps: float = 0.05
    gap0: float = 1.0
    out: str = "trace.csv"
    stat_every: int = 0
    epochs: float = 0.0
    budget_calls: int = 0
    record_every: int = 1
    # quadratic instance
    n: int = 10
    m: int = 5
    gamma: float = 1.0
    mu_y: float = 0.5
    instance_seed: int = 7
    noise_x: float = 0.0
    noise_y: float = 0.0
    # dro instance
    data: str = "synthetic"
    n_samples: int = 1000
    n_features: int = 20
    dro_alpha: float = 10.0
    eta1: float = 1e-3
    eta2: float = 0.0  # 0 -> 1/n^2
    batch: int = 1
    # manual schedule
    tau: float = 0.0
    sigma: float = 0.0
    theta: float = 0.0
    n_inner: int = 0
    t_outer: int = 0
    mu_x: float = 0.0
    # vr schedule
    b: int = 0
    b_x: int = 10
    b_y: int = 10
    q: int = 10
    zeta: float = 32.0
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_sources(cls, file_values: dict, overrides: dict) -> "RunConfig":
        cfg = cls()
        merged = dict(file_values)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        for key, val in merged.items():
            attr = key.replace("-", "_")
            if not hasattr(cfg, attr):
                cfg.extra[attr] = val
                continue
            cur = getattr(cfg, attr)
            if isinstance(cur, bool):
                val = str(val).lower() in ("1", "true", "yes")
            elif isinstance(cur, int):
                val = int(float(val))
            elif isinstance(cur, float):
                val = float(val)
            setattr(cfg, attr, val)
        return cfg

    def as_lines(self):
        skip = {"extra"}
        items = {k: v for k, v in vars(self).items() if k not in skip}
        items.update(self.extra)
        return [f"{k} = {items[k]}" for k in sorted(items)]


def _build_problem(cfg: RunConfig):
    """Returns (problem, finite_sum_or_None, objective_fn, epoch_size, meta)."""
    meta = {}
    if cfg.problem == "quadratic":
        inst_rng = np.random.default_rng(cfg.instance_seed)
        qs = datasets.make_quadratic_saddle(cfg.n, cfg.m, cfg.gamma, cfg.mu_y,
                                            inst_rng)
        p = qs.problem
        if cfg.noise_x > 0 or cfg.noise_y > 0:
            from .problem import with_gaussian_noise

            p = with_gaussian_noise(p, cfg.noise_x, cfg.noise_y)
        objective = lambda x: qs.phi(x)
        return p, None, objective, cfg.n + cfg.m, meta
    if cfg.problem == "bilinear":
        toy = datasets.make_bilinear_box_toy(gamma=cfg.gamma)
        return toy.problem, None, (lambda x: toy.phi(x)), 2, meta
    if cfg.problem == "dro":
        if cfg.data == "synthetic":
            ds = datasets.synthetic_logistic_dataset(
                cfg.n_samples, cfg.n_features,
                np.random.default_rng(cfg.instance_seed))
        else:
            ds = datasets.parse_libsvm(cfg.data)
        eta2 = cfg.eta2 if cfg.eta2 > 0 else 1.0 / ds.n_samples**2
        inst = datasets.build_dro(ds, alpha=cfg.dro_alpha, eta1=cfg.eta1,
                                  eta2=eta2, sgrad_batch=cfg.batch)
        meta["dro_n"] = ds.n_samples
        meta["dro_d"] = ds.n_features
        return (inst.problem, inst.finite_sum,
                (lambda x: inst.robust_loss(x)), ds.n_samples, meta)
    raise ConfigurationError(f"unknown problem {cfg.problem!r}")


def _resolve_schedule(cfg: RunConfig, p, meta: dict):
    """Returns (params, t_outer, certificate, vr_flag)."""
    s, c, nz = p.smoothness, p.convexity, p.noise
    nz = NoiseLevels(cfg.noise_x or nz.delta_x, cfg.noise_y or nz.delta_y)
    vr_flag = cfg.algo == "sapd-plus-vr"
    if cfg.schedule == "theory":
        if vr_flag:
            params, cert, t_theory = vr_schedule(
                s, c, nz, cfg.eps, cfg.gap0, cfg.q, cfg.b_x, cfg.b_y, cfg.zeta)
            if cfg.b > 0:
                params = VrParams(tau=params.tau, sigma=params.sigma, b=cfg.b,
                                  b_x=params.b_x, b_y=params.b_y, q=params.q,
                                  n_inner=params.n_inner, mu_x=params.mu_x)
        else:
            sched = theorem1_schedule(s, c, nz, cfg.eps, cfg.gap0)
            params, cert, t_theory = sched.sapd_params(), sched.certificate, sched.t_outer
            meta["theta_bounds"] = (f"{sched.theta_bar_1:.12g},{sched.theta_bar_2:.12g},"
                                    f"{sched.theta_dbar_1:.12g},{sched.theta_dbar_2:.12g}")
        t_outer = cfg.t_outer if cfg.t_outer > 0 else t_theory
        return params, t_outer, cert, vr_flag
    if cfg.schedule != "manual":
        raise ConfigurationError(f"unknown schedule source {cfg.schedule!r}")
    if cfg.tau <= 0 or cfg.sigma <= 0 or not (0 < cfg.theta <= 1) or cfg.n_inner < 1:
        raise ConfigurationError("manual schedule needs tau, sigma, theta, n_inner")
    mu_x = cfg.mu_x if cfg.mu_x > 0 else c.gamma
    if vr_flag:
        b = cfg.b if cfg.b > 0 else max(cfg.b_x, cfg.b_y)
        params = VrParams(tau=cfg.tau, sigma=cfg.sigma, b=b, b_x=cfg.b_x,
                          b_y=cfg.b_y, q=cfg.q, n_inner=cfg.n_inner, mu_x=mu_x)
        cert = build_vr_lmi(cfg.tau, cfg.sigma, cfg.q, cfg.b_x, cfg.b_y, mu_x, s, c)
    else:
        alpha = max(0.0, min(1.0 / cfg.sigma - math.sqrt(cfg.theta) * s.l_yy,
                             (1 - 1e-12) / cfg.sigma))
        rho = min(cfg.theta, 1.0 - 1e-12) if cfg.theta < 1 else 1.0
        params = SapdParams(tau=cfg.tau, sigma=cfg.sigma, theta=cfg.theta,
                            rho=rho, alpha=alpha, mu_x=mu_x, n_inner=cfg.n_inner)
        cert = build_lmi(cfg.tau, cfg.sigma, cfg.theta, rho, alpha, mu_x, s, c)
    if not cert.feasible:
        print(f"warning: manual schedule is not certified "
              f"(min eigenvalue {cert.min_eigenvalue:.3e}); proceeding", file=sys.stderr)
    t_outer = cfg.t_outer if cfg.t_outer > 0 else 1
    return params, t_outer, cert, vr_flag


def _calls_per_stage(params, vr_flag, oracle_batch):
    if vr_flag:
        n, q = params.n_inner, params.q
        refresh_x = len([k for k in range(n) if k % q == 0])
        refresh_y = len([k for k in range(1, n + 1) if k % q == 0])
        x_calls = refresh_x * params.b + (n - refresh_x) * 2 * params.b_x
        y_calls = params.b + refresh_y * params.b + (n - refresh_y) * 2 * params.b_y
        return x_calls + y_calls
    return (2 * params.n_inner + 1) * oracle_batch


def sgda_baseline_run(p, steps, tau, sigma, rng, x0=None, y0=None,
                      record_every=1, on_record=None):
    """Alternating proximal stochastic gradient descent-ascent, constant steps.

    Two oracle calls per iteration; shares the stage-record trace format
    (one record per `record_every` iterations).  on_record, if given, is
    called with each record as it is produced.
    """
    from .sapd import _guard

    x = np.zeros(p.n) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(p.m) if y0 is None else np.array(y0, dtype=float)
    records = [(0, 0, x.copy(), y.copy())]
    if on_record:
        on_record(records[0])
    calls = 0
    for k in range(steps):
        gy = p.stoch_grad_y(x, y, rng)
        y = p.prox_g(y + sigma * gy, sigma)
        gx = p.stoch_grad_x(x, y, rng)
        x = p.prox_f(x - tau * gx, tau)
        _guard(x, y, k)
        calls += 2 * p.oracle_batch
        if (k + 1) % record_every == 0 or k + 1 == steps:
            records.append((k + 1, calls, x.copy(), y.copy()))
            if on_record:
                on_record(records[-1])
    return records


def _start_point(cfg: RunConfig, p):
    """(x0, y0) of every rep.

    DRO starts at x0 = 0 with uniform weights.  The quadratic and bilinear
    instances have their minimizer at x = 0, so they start at x0 = 1.
    """
    if cfg.problem == "dro":
        return np.zeros(p.n), np.full(p.m, 1.0 / p.m)
    return np.ones(p.n), np.zeros(p.m)


def _run_single_rep(rep, cfg, p, fs, objective, params, t_outer, vr_flag,
                    epoch_size):
    """One repetition; returns (rows, note) where rows are CSV tuples."""
    rng = np.random.default_rng(cfg.seed + rep)
    x0, y0 = _start_point(cfg, p)
    t_start = time.perf_counter()
    stamps = []  # perf_counter as each stage record is produced

    def stamp(_record):
        stamps.append(time.perf_counter())

    rows = []
    note = ""

    def emit(stage, calls, x, at, stat=None):
        wall_ms = (at - t_start) * 1e3
        obj = objective(x)
        stat_s = "" if stat is None else f"{stat:.17g}"
        rows.append((rep, stage, calls, f"{wall_ms:.3f}", f"{obj:.17g}", stat_s))

    budget = cfg.budget_calls or (int(cfg.epochs * epoch_size) if cfg.epochs else 0)
    try:
        if cfg.algo == "sgda-baseline":
            if cfg.tau <= 0 or cfg.sigma <= 0:
                raise ConfigurationError("sgda-baseline needs manual tau and sigma")
            per_iter = 2 * p.oracle_batch
            steps = max(1, (budget or 10000) // per_iter)
            rec_every = max(1, epoch_size // per_iter)
            records = sgda_baseline_run(p, steps, cfg.tau, cfg.sigma, rng,
                                        x0=x0, y0=y0, record_every=rec_every,
                                        on_record=stamp)
            for (stage, calls, x, _y), at in zip(records, stamps):
                emit(stage, calls, x, at)
        else:
            per_stage = _calls_per_stage(params, vr_flag, p.oracle_batch)
            cap = t_outer
            if budget:
                cap = min(cap, max(1, budget // per_stage))
            stop = FixedT()
            if cfg.stat_every > 0:
                stop = StationarityTarget(epsilon=cfg.eps,
                                          check_every=cfg.stat_every)
            out_cfg = OuterConfig(t_outer=cap, schedule=params, vr=vr_flag,
                                  stop=stop, record_every=cfg.record_every)
            result = sapd_plus_run(p, out_cfg, x0, y0, rng, fs=fs, on_stage=stamp)
            for rec, at in zip(result.stages, stamps):
                emit(rec.stage, rec.oracle_calls, rec.x, at, rec.stationarity)
    except DivergenceError as err:
        note = f"rep {rep} diverged: {err} (stage {err.stage}, iter {err.iteration})"
    return rows, note


def cmd_solve(argv_overrides, config_path=None) -> int:
    file_values = parse_config_file(config_path) if config_path else {}
    cfg = RunConfig.from_sources(file_values, argv_overrides)
    p, fs, objective, epoch_size, meta = _build_problem(cfg)
    params, t_outer, cert, vr_flag = _resolve_schedule(cfg, p, meta)
    if vr_flag and fs is None:
        raise ConfigurationError("variance-reduced algorithm needs a finite-sum problem")

    notes = []
    all_rows = []
    for r in range(cfg.reps):
        rows, note = _run_single_rep(r, cfg, p, fs, objective, params, t_outer,
                                     vr_flag, epoch_size)
        all_rows.extend(rows)
        if note:
            notes.append(note)

    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as f:
        f.write(TRACE_HEADER + "\n")
        for rep, stage, calls, wall, obj, stat in all_rows:
            f.write(f"{rep},{stage},{calls},{wall},{obj},{stat}\n")

    meta_lines = cfg.as_lines()
    meta_lines += [f"{k} = {v}" for k, v in sorted(meta.items())]
    meta_lines.append(f"schedule_params = {params}")
    meta_lines.append(f"certificate_min_eigenvalue = {cert.min_eigenvalue:.17g}")
    meta_lines.append(f"certificate_feasible = {cert.feasible}")
    meta_lines.append(f"resolved_t_outer = {t_outer}")
    for note in notes:
        meta_lines.append(f"note = {note}")
    Path(str(out) + ".meta.txt").write_text("\n".join(meta_lines) + "\n")
    print(f"wrote {out} ({len(all_rows)} rows)")
    return 0


def cmd_check_params(args) -> int:
    s = SmoothnessConstants(args.l_xx, args.l_xy, args.l_yx, args.l_yy)
    c = ConvexityModuli(args.gamma, args.mu_y)
    nz = NoiseLevels(args.delta_x, args.delta_y)
    if args.theta is not None:
        # certify a manual tuple instead of deriving one
        mu_x = args.mu_x if args.mu_x else c.gamma
        theta = args.theta
        tau = args.tau if args.tau else (1.0 - theta) / mu_x
        sigma = args.sigma if args.sigma else (1.0 - theta) / max(c.mu_y * theta, 1e-300)
        alpha = max(0.0, min(1.0 / sigma - math.sqrt(theta) * s.l_yy,
                             (1 - 1e-12) / sigma))
        rho = theta if theta < 1 else 1.0
        cert = build_lmi(tau, sigma, theta, rho, alpha, mu_x, s, c)
        print(f"theta = {theta:.12g}")
        print(f"tau = {tau:.12g}")
        print(f"sigma = {sigma:.12g}")
        print(f"alpha = {alpha:.12g}")
        print(f"lmi_min_eigenvalue = {cert.min_eigenvalue:.12g}")
        print(f"feasible = {cert.feasible}")
        return 0 if cert.feasible else 1
    if args.vr:
        params, cert, t_outer = vr_schedule(s, c, nz, args.eps, args.gap0,
                                            args.q, args.b_x, args.b_y, args.zeta)
        print(f"tau = {params.tau:.12g}")
        print(f"sigma = {params.sigma:.12g}")
        print("theta = 1")
        print(f"b = {params.b}")
        print(f"n_inner = {params.n_inner}")
        print(f"t_outer = {t_outer}")
    else:
        sched = theorem1_schedule(s, c, nz, args.eps, args.gap0)
        td1, td2 = theta_noise_floor(c, nz, args.eps)
        print(f"beta = {sched.beta:.12g}")
        print(f"theta_bar_1 = {sched.theta_bar_1:.12g}")
        print(f"theta_bar_2 = {sched.theta_bar_2:.12g}")
        print(f"theta_dbar_1 = {td1:.12g}")
        print(f"theta_dbar_2 = {td2:.12g}")
        print(f"theta = {sched.theta:.12g}")
        print(f"tau = {sched.tau:.12g}")
        print(f"sigma = {sched.sigma:.12g}")
        print(f"alpha = {sched.alpha:.12g}")
        print(f"n_inner = {sched.n_inner}")
        print(f"t_outer = {sched.t_outer}")
        cert = sched.certificate
    print(f"lmi_min_eigenvalue = {cert.min_eigenvalue:.12g}")
    print(f"feasible = {cert.feasible}")
    return 0 if cert.feasible else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sapdplus",
                                     description="saddle-point solver benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-params", help="print a certified schedule")
    pc.add_argument("--l-xx", type=float, default=1.0)
    pc.add_argument("--l-xy", type=float, default=1.0)
    pc.add_argument("--l-yx", type=float, default=1.0)
    pc.add_argument("--l-yy", type=float, default=1.0)
    pc.add_argument("--gamma", type=float, default=1.0)
    pc.add_argument("--mu-y", type=float, default=1.0)
    pc.add_argument("--delta-x", type=float, default=0.0)
    pc.add_argument("--delta-y", type=float, default=0.0)
    pc.add_argument("--eps", type=float, default=0.1)
    pc.add_argument("--gap0", type=float, default=1.0)
    pc.add_argument("--vr", action="store_true")
    pc.add_argument("--q", type=int, default=10)
    pc.add_argument("--b-x", type=int, default=10)
    pc.add_argument("--b-y", type=int, default=10)
    pc.add_argument("--zeta", type=float, default=32.0)
    pc.add_argument("--theta", type=float, default=None,
                    help="certify a manual tuple instead of deriving one")
    pc.add_argument("--tau", type=float, default=None)
    pc.add_argument("--sigma", type=float, default=None)
    pc.add_argument("--mu-x", type=float, default=None)

    ps = sub.add_parser("solve", help="run one configuration, write a CSV trace")
    ps.add_argument("--config", type=str, default=None)
    for flag, typ in [("seed", int), ("reps", int), ("eps", float), ("out", str),
                      ("algo", str), ("schedule", str), ("problem", str),
                      ("epochs", float), ("budget-calls", int), ("gap0", float),
                      ("tau", float), ("sigma", float), ("theta", float),
                      ("n-inner", int), ("t-outer", int), ("batch", int),
                      ("b", int), ("b-x", int), ("b-y", int), ("q", int),
                      ("stat-every", int), ("data", str)]:
        ps.add_argument(f"--{flag}", type=typ, default=None)

    pb = sub.add_parser("bench", help="run a list of config files")
    pb.add_argument("--configs", nargs="+", required=True)
    pb.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "check-params":
        return cmd_check_params(args)
    if args.command == "solve":
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        return cmd_solve(overrides, args.config)
    if args.command == "bench":
        code = 0
        for path in args.configs:
            overrides = {"seed": args.seed} if args.seed is not None else {}
            code = max(code, cmd_solve(overrides, path))
        return code
    return 2


if __name__ == "__main__":
    sys.exit(main())
