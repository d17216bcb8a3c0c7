"""Benchmark harness: config parsing, solver dispatch, CSV traces.

Subcommands:
  check-params   print a certified schedule and its matrix certificate
  solve          run one configuration for several seeds, write a CSV trace
  bench          run a list of config files in sequence

Config files are flat ``key = value`` text with ``#`` comments, whose keys
are the fields of RunConfig (an unknown key is an error); CLI flags
override file values.  The reps of a `solve` run serially, in rep order.
Traces have the fixed header
``rep,stage,oracle_calls,wall_ms,objective,stationarity`` and a sidecar
``<out>.meta.txt`` with everything needed to reproduce the run.
``wall_ms`` is stamped when each stage record is produced, so it excludes
the objective evaluation that fills the row.  ``sgda-baseline`` runs the
inner solver with theta = 0, rho = 1, alpha = 0 and writes a row every
epoch of draws; its ``oracle_calls`` after k iterations is (2k + 1) batch
draws, as for any inner run (see sapd.inner_draws): the extra batch is the
y-gradient drawn at the last iterate.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import datasets
from .errors import ConfigurationError, DivergenceError
from .outer import FixedT, OuterConfig, StationarityTarget, sapd_plus_run
from .params import (build_lmi, build_vr_lmi, step_rule, theorem1_schedule,
                     vr_schedule)
from .problem import ConvexityModuli, NoiseLevels, SmoothnessConstants
from .sapd import SapdParams, inner_draws, sapd_run
from .vr import VrParams

TRACE_HEADER = "rep,stage,oracle_calls,wall_ms,objective,stationarity"
# what cmd_solve writes to the meta file beside the config fields: a meta
# file read back as a config skips these
RESULT_KEYS = frozenset({"dro_n", "dro_d", "theta_bounds", "schedule_params",
                         "certificate_min_eigenvalue", "certificate_feasible",
                         "resolved_t_outer", "note"})


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


def _number(key, val, integer):
    """The value of a numeric config key; an int key takes integral
    spellings such as 50.0 or 1e3, and digits exactly."""
    try:
        num = float(val)
    except ValueError:
        raise ConfigurationError(f"config key {key!r}: {val!r} is not a number") from None
    if not integer:
        return num
    if not num.is_integer():
        raise ConfigurationError(f"config key {key!r}: {val!r} is not an integer")
    return int(val) if str(val).isdigit() else int(num)


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

    @classmethod
    def from_sources(cls, file_values: dict, overrides: dict) -> "RunConfig":
        """File values, then the non-None overrides; a key that is neither a
        field nor in RESULT_KEYS raises, as does a malformed number."""
        cfg = cls()
        known = {f.name for f in fields(cls)}
        merged = dict(file_values)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        for key, val in merged.items():
            attr = key.replace("-", "_")
            if attr in RESULT_KEYS:
                continue
            if attr not in known:
                raise ConfigurationError(f"unknown config key {key!r}")
            cur = getattr(cfg, attr)
            if isinstance(cur, (int, float)):
                val = _number(key, val, isinstance(cur, int))
            setattr(cfg, attr, val)
        return cfg

    def as_lines(self):
        items = vars(self)
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
        inst = datasets.build_dro(ds, alpha=cfg.dro_alpha, eta1=cfg.eta1,
                                  eta2=cfg.eta2 if cfg.eta2 > 0 else None,
                                  sgrad_batch=cfg.batch)
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
                params = replace(params, b=cfg.b)
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
        params = step_rule(cfg.theta, mu_x, s, c, tau=cfg.tau, sigma=cfg.sigma,
                           n_inner=cfg.n_inner)
        cert = build_lmi(params.tau, params.sigma, params.theta, params.rho,
                         params.alpha, mu_x, s, c)
    if not cert.feasible:
        print(f"warning: manual schedule is not certified "
              f"(min eigenvalue {cert.min_eigenvalue:.3e}); proceeding", file=sys.stderr)
    t_outer = cfg.t_outer if cfg.t_outer > 0 else 1
    return params, t_outer, cert, vr_flag


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
            sgda = SapdParams(cfg.tau, cfg.sigma, theta=0.0, rho=1.0, alpha=0.0,
                              mu_x=0.0, n_inner=steps)
            records = [(0, 0, x0, time.perf_counter())]

            def record(k, x, _y):
                if (k + 1) % rec_every == 0 or k + 1 == steps:
                    records.append((k + 1, inner_draws(sgda, k + 1, p.oracle_batch),
                                    x.copy(), time.perf_counter()))

            sapd_run(p, sgda, x0, y0, rng, on_iterate=record)
            for stage, calls, x, at in records:
                emit(stage, calls, x, at)
        else:
            per_stage = inner_draws(params, params.n_inner, p.oracle_batch)
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
    meta_lines.append(f"schedule_params = {json.dumps(asdict(params))}")
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
        # certify a manual tuple instead of deriving one; N is no part of it
        mu_x = args.mu_x if args.mu_x else c.gamma
        sp = step_rule(args.theta, mu_x, s, c, tau=args.tau or None,
                       sigma=args.sigma or None, n_inner=1)
        cert = build_lmi(sp.tau, sp.sigma, sp.theta, sp.rho, sp.alpha, mu_x, s, c)
        shown = dict(theta=sp.theta, tau=sp.tau, sigma=sp.sigma, alpha=sp.alpha)
    elif args.vr:
        params, cert, t_outer = vr_schedule(s, c, nz, args.eps, args.gap0,
                                            args.q, args.b_x, args.b_y, args.zeta)
        shown = dict(tau=params.tau, sigma=params.sigma, theta=1, b=params.b,
                     n_inner=params.n_inner, t_outer=t_outer)
    else:
        sched = theorem1_schedule(s, c, nz, args.eps, args.gap0)
        cert = sched.certificate
        shown = {name: getattr(sched, name) for name in (
            "beta", "theta_bar_1", "theta_bar_2", "theta_dbar_1", "theta_dbar_2",
            "theta", "tau", "sigma", "alpha", "n_inner", "t_outer")}
    shown.update(lmi_min_eigenvalue=cert.min_eigenvalue)
    for name, val in shown.items():
        print(f"{name} = {val:.12g}" if isinstance(val, float) else f"{name} = {val}")
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
    try:
        if args.command == "check-params":
            return cmd_check_params(args)
        if args.command == "solve":
            overrides = {k: v for k, v in vars(args).items()
                         if k not in ("command", "config")}
            return cmd_solve(overrides, args.config)
        code = 0
        for path in args.configs:
            overrides = {"seed": args.seed} if args.seed is not None else {}
            code = max(code, cmd_solve(overrides, path))
        return code
    except ConfigurationError as err:
        # reported as argparse reports a bad flag
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
