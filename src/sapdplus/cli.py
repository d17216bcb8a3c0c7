"""Benchmark harness: config parsing, solver dispatch, CSV traces.

Subcommands:
  solve          run one configuration for several seeds, write a CSV trace
  check-params   print the schedule that `solve` runs, and its certificate

To run a list of configurations, loop over ``solve --config <file>``.

Config files are flat ``key = value`` text with ``#`` comments, whose keys
are the fields of RunConfig (an unknown key is an error).  The RunConfig
flags of `solve` and `check-params` are config values too, as are the
problem constants of `check-params` (_CONSTANTS: the l's, gamma, mu_y and
the deltas): all arrive as text, a flag overrides a file value, and
_number types and checks every number under one rule.  A number is
finite, integral for an int key and never negative, and a key of
_POSITIVE is > 0 (>= 1 for an int key); a refusal exits 2 naming the key
("tau must be nonnegative").  A 0 is a legal seed, instance_seed, gap0,
l_xx, l_yy, mu_y or delta, and means unset or off for noise_x, noise_y,
eta2, tau, sigma, theta, n_inner, mu_x, t_outer, b, budget_calls, epochs
and stat_every.

The reps of a `solve` run, rep r drawing from default_rng(seed + r), go
in lockstep when there are at least two, the algo is ``sapd-plus`` and
every oracle and prox map that its stochastic run calls carries the
replica_safe mark (sapd.takes_replica_stacks): the DRO problem.  They run
through outer.sapd_plus_lockstep, whose stages run the reps still going as
one replica stack, and a lone one on 1-D arrays, with the rows and notes
that one-by-one reps give, bit for bit, except that ``wall_ms`` of every
rep counts from the start of the joint run.  Every other run goes
through _run_single_rep, one rep at a time in rep order: a single rep,
``sgda-baseline`` and ``sapd-plus-vr``, the quadratic and bilinear
problems, and a problem whose oracles a wrapper without the mark has
replaced, such as the benchmark's traced run.  Reps do not go to worker
processes, which gained nothing: on a 2-vCPU VM, the 4 reps of the
benchmark's DRO command (20 stages each) took a median 0.37 s in a pool
of two forked workers, pool start included, against 0.35 s one by one
in the same session.  In one process they now take a median 0.22 s one
by one and 0.11 s in lockstep (8 interleaved runs, numpy 2.4.6).

Both subcommands take the schedule keys, _SCHEDULE_KEYS: ``algo`` and
``schedule`` name the request, which _resolve_schedule resolves into the
parameters, stage count and LMI certificate (params.certify) for the
noise the problem declares.  Every input that the number rule accepts
ends in one of three ways: a schedule; a manual schedule that does not
certify, which `check-params` prints with exit 1 and `solve` runs after
a warning; or exit 2 before any output opens, with one line that names
the quantity a closed-form rule cannot give (a momentum bound at or above
1, a bound, step size, count or batch that leaves the finite floats, or
a tuple that fails the rule's own certificate).

One table, _READS, says which RunConfig keys a run reads beside the seven
that every `solve` reads (problem, algo, seed, reps, out, epochs and
budget_calls).  It has a row for each part a run can have: each problem;
synthetic DRO data, the only DRO data source that reads n_samples,
n_features and instance_seed; the DRO minibatch oracles, which only
``sapd-plus`` and ``sgda-baseline`` call on DRO and which alone read
``batch`` (``sapd-plus-vr`` draws b, b_x and b_y samples); each request,
``sgda-baseline`` or an (algo, schedule) pair; and the stages of every
pair, which read schedule, eps, stat_every and record_every.  A key of the
table set away from its RunConfig default that no part of the run reads
is refused, with exit 2 before any output opens, naming the part that
stands where a reading part would (_refuse_unread); so a meta file, which
lists every field, replays.  `solve` caps the stage count by the budget,
which ``epochs`` or ``budget_calls`` sets (not both), and refuses a budget
below one stage.  `check-params` prints the schedule as `solve` records it
in its meta file (the ``schedule_params`` fields, the stage count and the
certificate), with theta first and, for a plain theory schedule, Theorem
1's beta and theta bounds.  ``sgda-baseline`` resolves none, so
`check-params` refuses it: it reads tau and sigma alone, runs the inner
solver with theta = 0, rho = 1, alpha = 0, mu_x = 0 and N from the
budget, has no certificate (no LMI covers it), and writes a row every
epoch of draws; its ``oracle_calls``
after k iterations is (2k + 1) batch draws, as for any inner run (see
SapdParams.draws): the extra batch is the y-gradient drawn at the last
iterate.  Traces have the fixed header
``rep,stage,oracle_calls,wall_ms,objective,stationarity`` and a sidecar
``<out>.meta.txt`` with everything needed to reproduce the run.
``wall_ms`` is StageRecord.wall, taken as each stage record is kept, so it
excludes the objective evaluation that fills the row.  `solve` makes the
output directory and opens the trace and meta files before the first rep;
a path it cannot write exits 2.

The CLI is the program when numpy is not yet imported as this module
loads (_PROGRAM).  The check is on ``sys.modules``, not ``__name__``, so
that the ``sapdplus`` console script, which imports this module, counts as
the program too.  A host that imported numpy first (a test runner, the
benchmark's in-process runs, any caller of main) keeps its BLAS threads,
its environment and its garbage collector as they were.  The program:

- loads numpy with one BLAS thread: unless the user has set
  ``OPENBLAS_NUM_THREADS``, it sets that variable to 1 for the numpy
  import alone and removes it after, so that child processes do not
  inherit it;
- pauses the garbage collector from its first import to the end of the
  package imports, then moves the objects the imports made to the oldest
  generation (gc.freeze, then gc.unfreeze; skipped when the program has
  frozen objects of its own, which unfreeze would release) and leaves the
  collector enabled or disabled, as it found it;
- registers gc.freeze with atexit, so that interpreter finalization does
  not collect the object graph that the process is about to drop.  No
  output depends on that collection: cmd_solve has closed its trace and
  meta file by then, and the interpreter still flushes its streams.

One thread suits runs whose products are small: the default DRO instance
(1000 x 20, batches of 10) and the quadratic and bilinear problems.  On a
2-vCPU VM the OpenBLAS pool cost about 70 ms of every launch (`python -c
"import numpy"` took a median 0.200 s, against 0.131 s with one thread),
and dro-sapd-cli's solve_s fell from 0.429 to 0.388 s without it.  On a
50000 x 200 instance the pool bought nothing for sapd-plus, at batch 1, 10
or 5000, while it took up to twice the CPU.  Its one measured gain is a
variance-reduced run with full-batch refreshes, where each refresh is an
n x d product of 10 to 12 million entries: ``--b 50000`` on 50000 x 200
ran in a median 9.1 s with two threads against 10.1 s with one, and ``--b
6000`` on 6000 x 2000 in 7.0 s against 8.5 s.  Set
``OPENBLAS_NUM_THREADS`` for such runs.  The CLI cannot choose for itself:
the thread count is fixed when numpy loads, before the instance and the
schedule's batch are known, and numpy has no call that changes it later.

What a launch pays for: the benchmark's DRO command (``solve --problem
dro --batch 10 --reps 4 --t-outer 20 --stat-every 0``) took a median 291
ms before the two collector steps (15 interleaved launches per side on a
2-vCPU VM, Python 3.11.7, numpy 2.4.6, timed with -X importtime): 34 ms
for the interpreter and ``site``, 51 ms to import numpy, 41 ms to import
the package, 143 ms in main and 20 ms at exit.  The package import
includes compiling its modules, since this machine sets
PYTHONDONTWRITEBYTECODE and so no launch finds a bytecode cache.  The
imports make about 23,000 objects that live until exit.  Without the
steps the collector walked them in 32 young and 2 older collections as
they were made and in one older collection in main (about 5 ms in all),
and finalization walked them again, most of the 20 ms.  A pause alone
saves little: the first young collection after it walks everything the
imports made, about 4 ms at once, which the move to the oldest generation
skips.  With both steps the imports and main spend under 0.5 ms in
collections, and the launch took 273 ms, 6 ms of it at exit.  (The VM's
speed drifts: in a slower spell the same launch took 512 ms, with 32 ms
at exit, and 485 ms with 10 ms.)  The cost is memory: the cyclic
garbage that the imports leave (the pure-Python classes of datetime,
which its C module replaces, and a few from pickle and ast: 346 objects
that hold about 10,000 more) waits for a full collection, which a launch
does not reach, where the young collection would have freed it; peak RSS
rose by about 0.2 MB of 37.6 (20 launches).  Left out: os._exit at the
end of main, faster still, skips the atexit handlers and C destructors,
and the console script's main() cannot take it; freezing at the end of
the imports in place of the move was as fast, but leaves that garbage
uncollectable for good, and the freeze count changed.
"""

import gc
import sys

# the CLI is the program when nothing has imported numpy before it; a host
# (a test runner, the benchmark, a caller of main) has, and both rules
# below leave it as it was
_PROGRAM = "numpy" not in sys.modules
# the imports below make tens of thousands of objects that live as long as
# the process, so the collector pauses through them (module docstring)
_COLLECTING = gc.isenabled()
if _PROGRAM:
    gc.disable()

import argparse
import atexit
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

# OpenBLAS reads its thread count only while numpy loads it, so the CLI
# sets the variable for that import alone and leaves no trace of it in the
# environment that child processes and a host program see
_ONE_BLAS_THREAD = _PROGRAM and "OPENBLAS_NUM_THREADS" not in os.environ
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

if _ONE_BLAS_THREAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

from . import datasets
from .errors import ConfigurationError, DivergenceError, InfeasibleScheduleError
from .outer import (FixedT, OuterConfig, StageRecord, StationarityTarget,
                    sapd_plus_lockstep, sapd_plus_run)
from .params import certify, step_rule, theorem1_schedule, vr_schedule
from .problem import (ConvexityModuli, NoiseLevels, SmoothnessConstants,
                      with_gaussian_noise)
from .sapd import SapdParams, sapd_run, takes_replica_stacks
from .vr import VrParams

if _PROGRAM:
    # freeze then unfreeze moves the objects the imports made to the oldest
    # generation, where a young collection does not walk them; unfreeze
    # would also release a program's own frozen objects, so a program that
    # has some leaves the imports' objects young
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _COLLECTING:
        gc.enable()
    # interpreter finalization would collect the whole object graph that
    # the process is about to drop; it leaves frozen objects alone
    atexit.register(gc.freeze)

TRACE_HEADER = "rep,stage,oracle_calls,wall_ms,objective,stationarity"
# what cmd_solve writes to the meta file beside the config fields: a meta
# file read back as a config skips these
RESULT_KEYS = frozenset({"dro_n", "dro_d", "theta_bounds", "schedule_params",
                         "certificate_min_eigenvalue", "certificate_feasible",
                         "resolved_t_outer", "note"})
# the numeric keys that must be > 0 (an int one >= 1); no number may be < 0
_POSITIVE = frozenset({"reps", "batch", "record_every", "eps", "n", "m", "gamma",
                       "n_samples", "n_features", "dro_alpha", "eta1", "b_x", "b_y", "q",
                       "zeta", "l_xy", "l_yx"})
# check-params' problem constants and their defaults, which _number reads
_CONSTANTS = dict(l_xx=1.0, l_xy=1.0, l_yx=1.0, l_yy=1.0, gamma=1.0, mu_y=1.0,
                  delta_x=0.0, delta_y=0.0)
# the RunConfig keys _resolve_schedule reads: flags of both subcommands
_SCHEDULE_KEYS = ("algo", "schedule", "eps", "gap0", "theta", "tau", "sigma", "n_inner",
                  "mu_x", "t_outer", "b", "b_x", "b_y", "q", "zeta")
# solve's flags: its run keys and the schedule keys
_SOLVE_KEYS = ("seed", "reps", "out", "problem", "epochs", "budget_calls", "batch",
               "stat_every", "record_every", "data") + _SCHEDULE_KEYS
_VR_BATCHES = ("b", "q", "b_x", "b_y")
# The RunConfig keys that each part of a run reads, beside those every solve
# reads (problem, algo, seed, reps, out, epochs, budget_calls): a slot for
# each kind of part, in which a run has one part (_parts), and a row for
# each part.  _refuse_unread refuses the others.
_READS = {
    "request": {
        "the sapd-plus manual schedule": ("tau", "sigma", "theta", "n_inner", "mu_x",
                                          "t_outer"),
        "the sapd-plus theory schedule": ("t_outer", "gap0"),
        "the sapd-plus-vr theory schedule": ("t_outer", "gap0", "zeta") + _VR_BATCHES,
        "the sapd-plus-vr manual schedule": ("tau", "sigma", "n_inner", "mu_x",
                                             "t_outer") + _VR_BATCHES,
        "sgda-baseline": ("tau", "sigma"),
    },
    # the outer loop of every (algo, schedule) pair, which sgda-baseline, one
    # inner run, does not have
    "stages": {"the staged run": ("schedule", "eps", "stat_every", "record_every")},
    "problem": {
        "the quadratic problem": ("n", "m", "gamma", "mu_y", "instance_seed", "noise_x",
                                  "noise_y"),
        "the bilinear problem": ("gamma",),
        "the dro problem": ("data", "dro_alpha", "eta1", "eta2"),
    },
    "data": {"synthetic DRO data": ("n_samples", "n_features", "instance_seed")},
    # the DRO runs that call the minibatch oracles; sapd-plus-vr draws b, b_x
    # and b_y samples instead
    "oracles": {"the DRO minibatch oracles": ("batch",)},
}
# in the order of the rows, so a refusal names the schedule keys first
_CHECKED = tuple(dict.fromkeys(key for rows in _READS.values() for keys in rows.values()
                               for key in keys))


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
    """The value of a numeric config key, which must be finite and obey the
    number rule (module docstring); an int key takes integral spellings
    such as 50.0 or 1e3, and digits exactly."""
    try:
        num = float(val)
    except ValueError:
        raise ConfigurationError(f"config key {key!r}: {val!r} is not a number") from None
    if not math.isfinite(num):
        raise ConfigurationError(f"config key {key!r}: {val!r} is not finite")
    if integer and not num.is_integer():
        raise ConfigurationError(f"config key {key!r}: {val!r} is not an integer")
    if key in _POSITIVE and num <= 0:
        raise ConfigurationError(f"{key} must be {'>= 1' if integer else 'positive'}")
    if num < 0:
        raise ConfigurationError(f"{key} must be nonnegative")
    return (int(val) if str(val).isdigit() else int(num)) if integer else num


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
        """File values, then the non-None overrides, each text or a value; a
        key that is neither a field nor in RESULT_KEYS raises, as does a
        number that _number refuses."""
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
                val = _number(attr, val, isinstance(cur, int))
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


def _resolve_schedule(cfg: RunConfig, smoothness, convexity, noise):
    """The schedule cfg.algo and cfg.schedule name for these constants:
    (params, t_outer, certificate, theory), theory being the
    Theorem1Schedule of a plain theory schedule and None otherwise.  A
    plain manual tuple takes unset tau, sigma and N from step_rule."""
    s, c = smoothness, convexity
    if cfg.algo not in ("sapd-plus", "sapd-plus-vr"):
        raise ConfigurationError(f"unknown algo {cfg.algo!r}")
    vr = cfg.algo == "sapd-plus-vr"
    theory = None
    if cfg.schedule == "theory":
        if vr:
            params, cert, t_outer = vr_schedule(
                s, c, noise, cfg.eps, cfg.gap0, cfg.q, cfg.b_x, cfg.b_y, cfg.zeta)
            if cfg.b > 0:
                params = replace(params, b=cfg.b)
        else:
            theory = theorem1_schedule(s, c, noise, cfg.eps, cfg.gap0)
            params, cert, t_outer = theory.sapd_params(), theory.certificate, theory.t_outer
    elif cfg.schedule == "manual":
        mu_x = cfg.mu_x if cfg.mu_x > 0 else c.gamma
        if vr:
            if cfg.tau <= 0 or cfg.sigma <= 0 or cfg.n_inner < 1:
                raise ConfigurationError("manual VR schedule needs tau, sigma, n_inner")
            b = cfg.b if cfg.b > 0 else max(cfg.b_x, cfg.b_y)
            params = VrParams(tau=cfg.tau, sigma=cfg.sigma, b=b, b_x=cfg.b_x,
                              b_y=cfg.b_y, q=cfg.q, n_inner=cfg.n_inner, mu_x=mu_x)
        else:
            if not 0 < cfg.theta <= 1:
                raise ConfigurationError("manual schedule needs theta in (0, 1]")
            if cfg.theta == 1 and not (cfg.tau and cfg.sigma and cfg.n_inner):
                # the closed forms of tau and sigma vanish there, and N has none
                raise ConfigurationError(
                    "manual schedule at theta = 1 needs tau, sigma and n_inner")
            params = step_rule(cfg.theta, mu_x, s, c, tau=cfg.tau or None,
                               sigma=cfg.sigma or None, n_inner=cfg.n_inner or None)
        cert = certify(params, s, c)
        t_outer = 1
    else:
        raise ConfigurationError(f"unknown schedule source {cfg.schedule!r}")
    return params, cfg.t_outer if cfg.t_outer > 0 else t_outer, cert, theory


def _parts(cfg: RunConfig) -> dict:
    """The part of cfg's run in each slot of _READS, or None for an unknown
    problem, algo or schedule.  A part with no row in a slot stands there
    for the rows it displaces and reads nothing there: sgda-baseline for
    the stages, a data file for synthetic data, sapd-plus-vr for the
    minibatch oracles, and the quadratic and bilinear problems for both
    DRO slots."""
    request = ("sgda-baseline" if cfg.algo == "sgda-baseline"
               else f"the {cfg.algo} {cfg.schedule} schedule")
    request = request if request in _READS["request"] else None
    problem = f"the {cfg.problem} problem"
    problem = problem if problem in _READS["problem"] else None
    dro = cfg.problem == "dro"
    return {
        "request": request,
        "stages": request if request in (None, "sgda-baseline") else "the staged run",
        "problem": problem,
        "data": (("synthetic DRO data" if cfg.data == "synthetic"
                  else f"the data file {cfg.data!r}") if dro else problem),
        "oracles": (request if cfg.algo == "sapd-plus-vr"
                    else "the DRO minibatch oracles") if dro else problem,
    }


def _refuse_unread(cfg: RunConfig):
    """Raise if cfg sets a key of _CHECKED away from its RunConfig default
    that no part of its run reads, naming the run's part in the last slot
    of _READS that has a row reading the key.  A key set to its default
    cannot be told from an unset one, and passes.  A VR request takes
    theta = 1, which its rule runs; a key of a slot whose part is unknown
    passes, for _build_problem or _resolve_schedule to name the part."""
    parts = _parts(cfg)
    for key in _CHECKED:
        val = getattr(cfg, key)
        if val == getattr(RunConfig, key) or (
                key == "theta" and val == 1 and cfg.algo == "sapd-plus-vr"):
            continue
        slots = [slot for slot, rows in _READS.items()
                 if any(key in keys for keys in rows.values())]
        if any(parts[slot] is None or key in _READS[slot].get(parts[slot], ())
               for slot in slots):
            continue
        raise ConfigurationError(f"{key} = {val} is not read by {parts[slots[-1]]}")


def _start_point(cfg: RunConfig, p):
    """(x0, y0) of every rep.

    DRO starts at x0 = 0 with uniform weights.  The quadratic and bilinear
    instances have their minimizer at x = 0, so they start at x0 = 1.
    """
    if cfg.problem == "dro":
        return np.zeros(p.n), np.full(p.m, 1.0 / p.m)
    return np.ones(p.n), np.zeros(p.m)


def _outer_config(cfg: RunConfig, params, t_outer) -> OuterConfig:
    stop = FixedT()
    if cfg.stat_every > 0:
        stop = StationarityTarget(epsilon=cfg.eps, check_every=cfg.stat_every)
    return OuterConfig(t_outer=t_outer, schedule=params, stop=stop,
                       record_every=cfg.record_every)


def _rep_rows(rep, records, t_start, objective):
    """The CSV tuples of one rep's records; wall_ms counts from t_start."""
    rows = []
    for r in records:
        stat = "" if r.stationarity is None else f"{r.stationarity:.17g}"
        rows.append((rep, r.stage, r.oracle_calls, f"{(r.wall - t_start) * 1e3:.3f}",
                     f"{objective(r.x):.17g}", stat))
    return rows


def _divergence_note(rep, err):
    return f"rep {rep} diverged: {err} (stage {err.stage}, iter {err.iteration})"


def _run_single_rep(rep, cfg, p, fs, objective, params, t_outer, epoch_size):
    """One repetition; returns (rows, note) where rows are CSV tuples.

    sgda-baseline keeps a record every epoch of draws and after its last
    iteration; the other algorithms keep the outer loop's stage records.
    """
    rng = np.random.default_rng(cfg.seed + rep)
    x0, y0 = _start_point(cfg, p)
    t_start = time.perf_counter()
    try:
        if cfg.algo == "sgda-baseline":
            rec_every = max(1, epoch_size // (2 * p.oracle_batch))
            records = [StageRecord(0, 0, x0, y0, time.perf_counter())]

            def record(k, x, y):
                if (k + 1) % rec_every == 0 or k + 1 == params.n_inner:
                    records.append(StageRecord(
                        k + 1, params.draws(k + 1, p.oracle_batch), x.copy(),
                        y.copy(), time.perf_counter()))

            sapd_run(p, params, x0, y0, rng, on_iterate=record)
        else:
            records = sapd_plus_run(p, _outer_config(cfg, params, t_outer), x0, y0,
                                    rng, fs=fs).stages
    except DivergenceError as err:
        return [], _divergence_note(rep, err)
    return _rep_rows(rep, records, t_start, objective), ""


def _run_lockstep(cfg, p, objective, params, t_outer):
    """Every rep at once, as one replica stack of sapd_plus_lockstep; returns
    the (rows, note) of each rep in rep order, those _run_single_rep gives
    except that wall_ms counts from the start of the joint run."""
    rngs = [np.random.default_rng(cfg.seed + rep) for rep in range(cfg.reps)]
    x0, y0 = _start_point(cfg, p)
    t_start = time.perf_counter()
    outcomes = sapd_plus_lockstep(p, _outer_config(cfg, params, t_outer), x0, y0, rngs)
    return [([], _divergence_note(rep, out)) if isinstance(out, DivergenceError)
            else (_rep_rows(rep, out.stages, t_start, objective), "")
            for rep, out in enumerate(outcomes)]


def _cannot_write(path, err):
    """The ConfigurationError for an OSError raised while writing path; it
    names the path the system refused when that is another one."""
    where = f" ({err.filename})" if err.filename and Path(err.filename) != path else ""
    return ConfigurationError(f"cannot write {path}: {err.strerror or err}{where}")


def _open_to_write(path):
    try:
        return open(path, "w")
    except OSError as err:
        raise _cannot_write(path, err) from None


def _write_lines(file, lines):
    try:
        file.write("".join(line + "\n" for line in lines))
        file.flush()
    except OSError as err:
        raise _cannot_write(Path(file.name), err) from None


def cmd_solve(argv_overrides, config_path=None) -> int:
    file_values = parse_config_file(config_path) if config_path else {}
    cfg = RunConfig.from_sources(file_values, argv_overrides)
    _refuse_unread(cfg)
    if cfg.epochs and cfg.budget_calls:
        raise ConfigurationError(f"epochs = {cfg.epochs} and budget_calls = "
                                 f"{cfg.budget_calls} both set the budget: set one")
    p, fs, objective, epoch_size, meta = _build_problem(cfg)
    budget = cfg.budget_calls or int(cfg.epochs * epoch_size)
    if cfg.algo == "sgda-baseline":
        if cfg.tau <= 0 or cfg.sigma <= 0:
            raise ConfigurationError("sgda-baseline needs manual tau and sigma")
        params = SapdParams(cfg.tau, cfg.sigma, theta=0.0, rho=1.0, alpha=0.0, mu_x=0.0,
                            n_inner=max(1, (budget or 10000) // (2 * p.oracle_batch)))
        t_outer = cert = None  # one inner run, which no LMI covers
    else:
        params, t_outer, cert, theory = _resolve_schedule(cfg, p.smoothness,
                                                          p.convexity, p.noise)
        if isinstance(params, VrParams) and fs is None:
            raise ConfigurationError("variance-reduced algorithm needs a finite-sum problem")
        if budget:
            per_stage = params.draws(params.n_inner, p.oracle_batch)
            if budget < per_stage:
                raise ConfigurationError(f"a budget of {budget} draws cannot pay for "
                                         f"one stage, which draws {per_stage}")
            t_outer = min(t_outer, budget // per_stage)
        if not cert.feasible:
            print(f"warning: manual schedule is not certified "
                  f"(min eigenvalue {cert.min_eigenvalue:.3e}); proceeding", file=sys.stderr)
        if theory is not None:
            meta["theta_bounds"] = (f"{theory.theta_bar_1:.12g},{theory.theta_bar_2:.12g},"
                                    f"{theory.theta_dbar_1:.12g},{theory.theta_dbar_2:.12g}")

    out = Path(cfg.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise _cannot_write(out, err) from None
    # both files are opened before the first rep, so that a path that
    # cannot be written fails before the run, not after it
    with (_open_to_write(out) as trace,
          _open_to_write(Path(str(out) + ".meta.txt")) as meta_file):
        notes = []
        all_rows = []
        if cfg.reps > 1 and cfg.algo == "sapd-plus" and takes_replica_stacks(p):
            results = _run_lockstep(cfg, p, objective, params, t_outer)
        else:
            results = (_run_single_rep(r, cfg, p, fs, objective, params, t_outer,
                                       epoch_size) for r in range(cfg.reps))
        for rows, note in results:
            all_rows.extend(rows)
            if note:
                notes.append(note)

        _write_lines(trace, [TRACE_HEADER] + [",".join(map(str, row)) for row in all_rows])
        meta_lines = cfg.as_lines()
        meta_lines += [f"{k} = {v}" for k, v in sorted(meta.items())]
        meta_lines.append(f"schedule_params = {json.dumps(asdict(params))}")
        if cert is not None:
            meta_lines.append(f"certificate_min_eigenvalue = {cert.min_eigenvalue:.17g}")
            meta_lines.append(f"certificate_feasible = {cert.feasible}")
            meta_lines.append(f"resolved_t_outer = {t_outer}")
        for note in notes:
            meta_lines.append(f"note = {note}")
        _write_lines(meta_file, meta_lines)
    print(f"wrote {out} ({len(all_rows)} rows)")
    return 0


def cmd_check_params(args) -> int:
    k = {key: _number(key, getattr(args, key), False) for key in _CONSTANTS}
    cfg = RunConfig.from_sources({}, {key: getattr(args, key) for key in _SCHEDULE_KEYS})
    if cfg.algo == "sgda-baseline":
        raise ConfigurationError("sgda-baseline has no certificate")
    _refuse_unread(cfg)
    params, t_outer, cert, theory = _resolve_schedule(
        cfg, SmoothnessConstants(k["l_xx"], k["l_xy"], k["l_yx"], k["l_yy"]),
        ConvexityModuli(k["gamma"], k["mu_y"]), NoiseLevels(k["delta_x"], k["delta_y"]))
    shown = {"theta": params.theta, **asdict(params), "t_outer": t_outer}
    if theory is not None:
        shown.update((name, getattr(theory, name)) for name in (
            "beta", "theta_bar_1", "theta_bar_2", "theta_dbar_1", "theta_dbar_2"))
    shown.update(lmi_min_eigenvalue=cert.min_eigenvalue, feasible=cert.feasible)
    for name, val in shown.items():
        print(f"{name} = {val:.12g}" if isinstance(val, float) else f"{name} = {val}")
    return 0 if cert.feasible else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sapdplus",
                                     description="saddle-point solver benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-params", help="print a certified schedule",
                        description="print the schedule that solve runs for these "
                                    "constants, and its certificate")
    for key in (*_CONSTANTS, *_SCHEDULE_KEYS):
        pc.add_argument(f"--{key.replace('_', '-')}", default=_CONSTANTS.get(key))

    ps = sub.add_parser("solve", help="run one configuration, write a CSV trace")
    ps.add_argument("--config", type=str, default=None)
    for key in _SOLVE_KEYS:
        ps.add_argument(f"--{key.replace('_', '-')}")

    args = parser.parse_args(argv)
    try:
        if args.command == "check-params":
            return cmd_check_params(args)
        return cmd_solve({key: getattr(args, key) for key in _SOLVE_KEYS}, args.config)
    except (ConfigurationError, InfeasibleScheduleError) as err:
        # reported as argparse reports a bad flag
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
