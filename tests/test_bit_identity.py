"""The inner solvers against frozen reference copies of their loops.

Every field of the run result, the iterates seen through `on_iterate`, the
VR batch-gradient calls and the CLI's sgda-baseline rows must match the
reference bit for bit: the one inner loop may only drop work whose result
is never read, never reorder arithmetic or rng draws.  The solvers draw a
stage's random values in blocks, the references one oracle call at a time;
both must leave the generator in the same state.
"""

from dataclasses import replace

import numpy as np
import pytest

from fixtures import make_quadratic_finite_sum, make_scsc_quadratic
from reference_loops import (reference_sapd_run, reference_sgda_run,
                             reference_vr_sapd_run)
from sapdplus import cli, datasets
from sapdplus.errors import DivergenceError
from sapdplus.outer import smooth_dual
from sapdplus.params import theorem1_schedule
from sapdplus.problem import (NoiseLevels, shifted_finite_sum, shifted_subproblem,
                              with_gaussian_noise)
from sapdplus.sapd import CHUNK_VALUES, SapdParams, _StochasticGradient, sapd_run
from sapdplus.vr import VrParams, vr_sapd_run


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def assert_same_run(got, ref):
    for name in ("x_avg", "y_avg", "x_last", "y_last"):
        assert _bits(getattr(got, name)) == _bits(getattr(ref, name)), name
    assert _bits(got.last_step_norm) == _bits(ref.last_step_norm)
    assert (got.iterations, got.x_calls, got.y_calls) == (
        ref.iterations, ref.x_calls, ref.y_calls)


def assert_same_iterates(seen, trace):
    """seen: (k, x, y) from on_iterate; trace: the reference's (x, y) per iteration."""
    assert [k for k, _, _ in seen] == list(range(len(trace)))
    for (_, x, y), (x_ref, y_ref) in zip(seen, trace):
        assert (_bits(x), _bits(y)) == (_bits(x_ref), _bits(y_ref))


def recorder():
    seen = []
    return seen, lambda k, x, y: seen.append((k, x.copy(), y.copy()))


def _schedule(p, n_inner):
    sched = theorem1_schedule(p.smoothness, p.convexity, p.noise, 0.1, 1.0)
    return replace(sched.sapd_params(), n_inner=n_inner)


def quadratic_case(noise):
    rng = np.random.default_rng(3)
    qs = datasets.make_quadratic_saddle(6, 4, 1.0, 0.5, rng)
    p = with_gaussian_noise(qs.problem, noise, noise)
    params = _schedule(p, 300)
    center = rng.standard_normal(6)
    return shifted_subproblem(p, center, params.mu_x), params, center, np.zeros(4)


def bilinear_case(noise):
    toy = datasets.make_bilinear_box_toy()
    smoothed = smooth_dual(toy.problem, 0.05, np.zeros(1))
    p = with_gaussian_noise(smoothed, noise, noise)
    params = _schedule(p, 300)
    center = np.array([0.7])
    return shifted_subproblem(p, center, params.mu_x), params, center, np.array([0.3])


def dro_instance():
    ds = datasets.synthetic_logistic_dataset(60, 5, np.random.default_rng(4))
    return datasets.build_dro(ds, sgrad_batch=3)


def dro_case(noise):
    # minibatch noise: the instance declares no noise level, so `noise` is unused
    inst = dro_instance()
    p = inst.problem
    params = _schedule(p, 150)
    center = np.random.default_rng(5).standard_normal(p.n)
    return (shifted_subproblem(p, center, params.mu_x), params, center,
            np.full(p.m, 1.0 / p.m))


CASES = {"quadratic": quadratic_case, "bilinear": bilinear_case, "dro": dro_case}


class TestSapdRunMatchesReference:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("step_tol", [0.0, 1e-9])
    def test_stochastic(self, case, record, step_tol):
        sub, params, x0, y0 = CASES[case](0.3)
        seen, on_iterate = recorder()
        got = sapd_run(sub, params, x0, y0, np.random.default_rng(17),
                       step_tol=step_tol, on_iterate=on_iterate if record else None)
        ref = reference_sapd_run(sub, params, x0, y0, np.random.default_rng(17),
                                 step_tol=step_tol, record_iterates=record)
        assert_same_run(got, ref)
        assert_same_iterates(seen, ref.trace or [])

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("record", [False, True])
    def test_deterministic_early_exit(self, case, record):
        sub, params, x0, y0 = CASES[case](0.0)
        params = replace(params, n_inner=5000)
        seen, on_iterate = recorder()
        got = sapd_run(sub, params, x0, y0, None, step_tol=1e-8,
                       on_iterate=on_iterate if record else None)
        ref = reference_sapd_run(sub, params, x0, y0, None, step_tol=1e-8,
                                 record_iterates=record)
        assert got.iterations < params.n_inner  # the early exit was taken
        assert_same_run(got, ref)
        assert_same_iterates(seen, ref.trace or [])

    def test_divergence_trips_at_the_same_iteration(self):
        qs = make_scsc_quadratic([[-1.0]], [[1.0]], mu_y=1.0, gamma=1.0)
        sub = shifted_subproblem(qs.problem, np.zeros(1), 1.0)
        params = SapdParams(tau=50.0, sigma=50.0, theta=1.0, rho=1.0, alpha=0.0,
                            mu_x=1.0, n_inner=500)
        errors = []
        for run in (sapd_run, reference_sapd_run):
            with pytest.raises(DivergenceError) as err:
                run(sub, params, np.ones(1), np.ones(1), None)
            errors.append((str(err.value), err.value.iteration))
        assert errors[0] == errors[1]


def quadratic_fs_case():
    rng = np.random.default_rng(5)
    qfs = make_quadratic_finite_sum(20, 4, 3, 1.0, 1.0, rng, spread=0.4)
    center = rng.standard_normal(4)
    sub = shifted_subproblem(qfs.base.problem, center, 1.0)
    sub_fs = shifted_finite_sum(qfs.spec, center, 2.0)
    params = VrParams(tau=0.03, sigma=0.03, b=20, b_x=3, b_y=2, q=5, n_inner=37,
                      mu_x=1.0)
    return sub_fs, sub, params, rng.standard_normal(4), rng.standard_normal(3)


def dro_fs_case():
    inst = dro_instance()
    p = inst.problem
    sched = theorem1_schedule(p.smoothness, p.convexity, NoiseLevels(0, 0), 0.1, 1.0)
    center = np.random.default_rng(6).standard_normal(p.n)
    sub = shifted_subproblem(p, center, sched.mu_x)
    sub_fs = shifted_finite_sum(inst.finite_sum, center, sched.mu_x + p.convexity.gamma)
    params = VrParams(tau=sched.tau, sigma=sched.sigma, b=30, b_x=3, b_y=3, q=4,
                      n_inner=41, mu_x=sched.mu_x)
    return sub_fs, sub, params, center, np.full(p.m, 1.0 / p.m)


VR_CASES = {"quadratic": quadratic_fs_case, "dro": dro_fs_case}


def logged(fs, log):
    """fs whose batch gradients append (name, batch, x, y, output) to log."""

    def wrap(name):
        fn = getattr(fs, name)

        def grad(batch, x, y):
            out = fn(batch, x, y)
            log.append((name, batch.copy(), x.copy(), y.copy(), out.copy()))
            return out

        return grad

    return replace(fs, batch_grad_x=wrap("batch_grad_x"),
                   batch_grad_y=wrap("batch_grad_y"))


@pytest.mark.parametrize("case", sorted(VR_CASES))
@pytest.mark.parametrize("log_calls", [False, True])
def test_vr_sapd_run_matches_reference(case, log_calls):
    fs, sub, params, x0, y0 = VR_CASES[case]()
    logs = [], []
    fs_got, fs_ref = (logged(fs, log) for log in logs) if log_calls else (fs, fs)
    got = vr_sapd_run(fs_got, sub, params, x0, y0, np.random.default_rng(23))
    ref = reference_vr_sapd_run(fs_ref, sub, params, x0, y0, np.random.default_rng(23))
    assert_same_run(got, ref)
    got_log, ref_log = logs
    # one call per refresh, two per recursion step, and the initial y-batch
    q = params.q
    calls = 1 + sum(2 + (k % q > 0) + ((k + 1) % q > 0) for k in range(params.n_inner))
    assert len(got_log) == len(ref_log) == calls * log_calls
    for call_got, call_ref in zip(got_log, ref_log):
        assert call_got[0] == call_ref[0]
        assert [_bits(a) for a in call_got[1:]] == [_bits(a) for a in call_ref[1:]]


class TestSgdaDirection:
    """At theta = 0 the plain estimator returns each y-gradient g as the
    dual direction.  The momentum form g + theta * (g - g_k) it replaces is
    not the same in two places, stated here: g = -0.0 with g - g_k >= 0
    gives +0.0, and an infinite g - g_k gives NaN.  At theta > 0 the
    momentum form stays."""

    G = [np.array([1.0, -0.0, 2.0]),
         np.array([-0.0, np.inf, 3.0]),
         np.array([-0.0, 5.0, -np.inf])]

    def directions(self, theta):
        qs = make_scsc_quadratic([[-1.0]], [[1.0]], mu_y=1.0, gamma=1.0)
        scripted = iter(self.G)
        p = replace(qs.problem, m=3, grad_y=lambda x, y: next(scripted))
        params = SapdParams(tau=0.1, sigma=0.1, theta=theta, rho=1.0, alpha=0.0,
                            mu_x=1.0, n_inner=3)
        est = _StochasticGradient(p, params, None)
        x, y = np.zeros(1), np.zeros(3)
        return [est.first(x, y)] + [est.dual(k, x, y) for k in range(2)]

    def momentum_form(self, theta):
        first = self.G[0] + theta * np.zeros(3)
        return [first] + [g + theta * (g - g_k) for g_k, g in zip(self.G, self.G[1:])]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_theta_zero_returns_g(self):
        got, old = self.directions(0.0), self.momentum_form(0.0)
        assert [_bits(s) for s in got] == [_bits(g) for g in self.G]
        # the momentum form differs at five entries: -0.0 turns +0.0 at
        # (0, 1) and (2, 0), and inf - g_k gives NaN at (1, 1), (2, 1), (2, 2);
        # at (1, 0) g - g_k < 0 and -0.0 stays
        differs = [(k, i) for k in range(3) for i in range(3)
                   if _bits(got[k][i]) != _bits(old[k][i])]
        assert differs == [(0, 1), (1, 1), (2, 0), (2, 1), (2, 2)]
        assert not (np.signbit(old[0][1]) or np.signbit(old[2][0]))
        assert np.isnan([old[1][1], old[2][1], old[2][2]]).all()

    def test_positive_theta_keeps_momentum_form(self):
        got = self.directions(0.5)
        assert [_bits(s) for s in got] == [_bits(s) for s in self.momentum_form(0.5)]


SGDA_CASES = {
    "quadratic": dict(problem="quadratic", noise_x=0.3, noise_y=0.3, budget_calls=3000),
    "dro": dict(problem="dro", n_samples=200, batch=10, budget_calls=20000),
    # 7,000 iterations of 20 indices: three blocks
    "dro-chunked": dict(problem="dro", n_samples=200, batch=10, budget_calls=140000),
}


def sgda_rep(cfg):
    """The CLI's rows and per-row x, beside the frozen loop on the same inputs."""
    p, fs, objective, epoch_size, meta = cli._build_problem(cfg)
    params, t_outer, _, vr_flag = cli._resolve_schedule(cfg, p, meta)
    xs = []

    def spy(x):
        xs.append(x.copy())
        return objective(x)

    rows, note = cli._run_single_rep(0, cfg, p, fs, spy, params, t_outer, vr_flag,
                                     epoch_size)
    per_iter = 2 * p.oracle_batch
    x0, y0 = cli._start_point(cfg, p)

    def reference():
        return reference_sgda_run(p, cfg.budget_calls // per_iter, cfg.tau, cfg.sigma,
                                  np.random.default_rng(cfg.seed), x0=x0, y0=y0,
                                  record_every=max(1, epoch_size // per_iter))

    return p, rows, note, xs, reference


@pytest.mark.parametrize("case", sorted(SGDA_CASES))
def test_sgda_rows_match_reference(case):
    cfg = cli.RunConfig(algo="sgda-baseline", tau=0.05, sigma=0.05, seed=8,
                        **SGDA_CASES[case])
    p, rows, note, xs, reference = sgda_rep(cfg)
    records = reference()
    assert note == "" and len(records) > 10
    assert [row[1] for row in rows] == [k for k, _, _, _ in records]
    assert [_bits(x) for x in xs] == [_bits(x) for _, _, x, _ in records]
    # sapd_run also draws the y-gradient at the last iterate: one batch more
    assert [row[2] for row in rows] == [0] + [calls + p.oracle_batch
                                             for _, calls, _, _ in records[1:]]


def test_sgda_divergence_trips_at_the_same_iteration():
    cfg = cli.RunConfig(problem="quadratic", algo="sgda-baseline", tau=3.0, sigma=3.0,
                        budget_calls=4000)
    _, rows, note, _, reference = sgda_rep(cfg)
    with pytest.raises(DivergenceError) as err:
        reference()
    assert rows == []
    assert note == (f"rep 0 diverged: {err.value} (stage None, "
                    f"iter {err.value.iteration})")


class CountingRng:
    """A Generator that records the size of every draw made from it."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def integers(self, low, high, size):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size)

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


def noisy_quadratic_case(delta_x, delta_y, n_inner):
    rng = np.random.default_rng(3)
    qs = datasets.make_quadratic_saddle(6, 4, 1.0, 0.5, rng)
    p = with_gaussian_noise(qs.problem, delta_x, delta_y)
    params = _schedule(p, n_inner)
    center = rng.standard_normal(6)
    return shifted_subproblem(p, center, params.mu_x), params, center, np.zeros(4)


def dro_batch_case(batch, n_inner):
    ds = datasets.synthetic_logistic_dataset(60, 5, np.random.default_rng(4))
    p = datasets.build_dro(ds, sgrad_batch=batch).problem
    params = _schedule(p, n_inner)
    center = np.random.default_rng(5).standard_normal(p.n)
    return (shifted_subproblem(p, center, params.mu_x), params, center,
            np.full(p.m, 1.0 / p.m))


class TestBlockedDraws:
    """Blocked draws against the per-call references: the same iterates, the
    same generator state after the stage, one generator call per block."""

    @pytest.mark.parametrize("case,blocks", [
        # (n + m) * N + m values: 3,004 in one block
        (lambda: noisy_quadratic_case(0.3, 0.3, 300), [3004]),
        # delta_x = 0: only the y-axis draws, 4 * 301 values
        (lambda: noisy_quadratic_case(0.0, 0.3, 300), [1204]),
        # delta_y = 0: only the x-axis draws, 6 * 300 values
        (lambda: noisy_quadratic_case(0.3, 0.0, 300), [1800]),
        # 4 + 10 * 7,000 values: whole iterations up to the cap, then the rest
        (lambda: noisy_quadratic_case(0.3, 0.3, 7000),
         [4 + 10 * ((CHUNK_VALUES - 4) // 10), 10 * (7000 - (CHUNK_VALUES - 4) // 10)]),
        # an odd minibatch: 7 indices per call
        (lambda: dro_batch_case(7, 150), [7 + 14 * 150]),
        # one iteration above the cap is a block of its own
        (lambda: dro_batch_case(40001, 2), [40001 + 80002, 80002]),
    ], ids=["both-axes", "y-only", "x-only", "above-cap", "dro-odd-batch",
            "iteration-above-cap"])
    def test_sapd_run(self, case, blocks):
        sub, params, x0, y0 = case()
        got_rng, ref_rng = CountingRng(17), CountingRng(17)
        seen, on_iterate = recorder()
        got = sapd_run(sub, params, x0, y0, got_rng, on_iterate=on_iterate)
        ref = reference_sapd_run(sub, params, x0, y0, ref_rng, record_iterates=True)
        assert_same_run(got, ref)
        assert_same_iterates(seen, ref.trace)
        assert got_rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
        assert got_rng.sizes == blocks
        assert sum(ref_rng.sizes) == sum(blocks)

    @pytest.mark.filterwarnings("ignore:large batch exceeds component count")
    @pytest.mark.parametrize("case,n_inner,b,blocks", [
        # b for w_0, b per refresh, b_x (b_y) per x (y) recursion step
        ("quadratic", 37, 20, [20 + 8 * 20 + 29 * 3 + 7 * 20 + 30 * 2]),
        ("dro", 41, 30, [30 + 11 * 30 + 30 * 3 + 10 * 30 + 31 * 3]),
        # 2,000-index refreshes: whole iterations up to the cap, then the rest
        ("quadratic", 97, 2000, [64317, 16070])])
    def test_vr_sapd_run(self, case, n_inner, b, blocks):
        fs, sub, params, x0, y0 = VR_CASES[case]()
        # n_inner is no multiple of q; b_x != b_y in the quadratic case
        params = replace(params, n_inner=n_inner, b=b)
        assert n_inner % params.q
        got_rng, ref_rng = CountingRng(23), CountingRng(23)
        got = vr_sapd_run(fs, sub, params, x0, y0, got_rng)
        ref = reference_vr_sapd_run(fs, sub, params, x0, y0, ref_rng)
        assert_same_run(got, ref)
        assert got_rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
        assert got_rng.sizes == blocks
        assert sum(ref_rng.sizes) == sum(blocks)
        assert max(blocks) <= CHUNK_VALUES
