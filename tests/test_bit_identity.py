"""The inner solvers against frozen reference copies of their loops.

Every field of the run result, the iterates seen through `on_iterate` and
the CLI's sgda-baseline rows must match the reference bit for bit, and the
oracle calls the schedule's type counts for the run (`oracle_calls`) must
equal, per axis, those the reference counts as it makes them: the one
inner loop may only drop work whose result is never read, never reorder
arithmetic or rng draws.  The one exception is the VR solver: its SPIDER
recursion adds the shared term grad_h once, at the new point, where the
reference adds it at both points of a step and subtracts, so its iterates
and the points of its batch-gradient calls match to rounding (rtol = 1e-12,
atol = 1e-12 * max|expected|); its batches, call counts and oracle counts
still match exactly.  The solvers draw a stage's random values in blocks,
the references one oracle call at a time; both must leave the generator in
the same state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_quadratic_finite_sum, make_scsc_quadratic
from reference_loops import (reference_sapd_run, reference_sgda_run,
                             reference_vr_sapd_run)
from sapdplus import cli, datasets, evaluation, prox, sapd
from sapdplus.errors import DivergenceError
from sapdplus.evaluation import moreau_stationarity
from sapdplus.outer import smooth_dual
from sapdplus.params import theorem1_schedule
from sapdplus.problem import NoiseLevels, shifted_subproblem, with_gaussian_noise
from sapdplus.sapd import CHUNK_VALUES, SapdParams, _stochastic_gradient, sapd_run
from sapdplus.vr import VrParams, vr_sapd_run


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def assert_same_result(got, other):
    for name in ("x_avg", "y_avg", "x_last", "y_last"):
        assert _bits(getattr(got, name)) == _bits(getattr(other, name)), name
    assert _bits(got.last_step_norm) == _bits(other.last_step_norm)
    assert got.iterations == other.iterations


def assert_counted_calls(params, got, ref):
    """The oracle calls params counts for got's iterations, per axis, are
    those the reference loop counted as it made them."""
    assert params.oracle_calls(got.iterations) == (ref.x_calls, ref.y_calls)


def assert_same_run(got, ref, params):
    assert_same_result(got, ref)
    assert_counted_calls(params, got, ref)


def assert_close(got, expected):
    np.testing.assert_allclose(got, expected, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(expected))))


def assert_close_vr_run(got, ref, params):
    """The VR run against its reference: iterates to rounding, counts exactly.

    The last step norm is a difference of iterates, so its tolerance is
    taken against the iterates' size, not its own.
    """
    for name in ("x_avg", "y_avg", "x_last", "y_last"):
        assert_close(getattr(got, name), getattr(ref, name))
    size = max(np.max(np.abs(ref.x_last)), np.max(np.abs(ref.y_last)))
    assert abs(got.last_step_norm - ref.last_step_norm) <= 1e-12 * size
    assert got.iterations == ref.iterations
    assert_counted_calls(params, got, ref)


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


def replica_stack_case():
    """dro_case for three replicas: the subproblem shifted at a stack of
    three centers, which are also the replicas' start points."""
    p = dro_instance().problem
    params = _schedule(p, 150)
    centers = np.random.default_rng(5).standard_normal((3, p.n))
    return (shifted_subproblem(p, centers, params.mu_x), params, centers,
            np.full(p.m, 1.0 / p.m))


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
        assert_same_run(got, ref, params)
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
        assert_same_run(got, ref, params)
        assert_same_iterates(seen, ref.trace or [])

    def test_replica_stack(self, monkeypatch):
        # three DRO replicas in lockstep, each with its own center and
        # generator, against the reference loop of each alone; blocks of
        # at most 40 values, so that the stage crosses many of them
        monkeypatch.setattr(sapd, "CHUNK_VALUES", 40)
        sub, params, x0, y0 = replica_stack_case()
        rngs = [np.random.default_rng(17 + r) for r in range(3)]
        got = sapd_run(sub, params, x0, y0, rngs)
        for r in range(3):
            rng = np.random.default_rng(17 + r)
            one = shifted_subproblem(dro_instance().problem, x0[r], params.mu_x)
            ref = reference_sapd_run(one, params, x0[r], y0, rng)
            for name in ("x_avg", "y_avg", "x_last", "y_last"):
                assert _bits(getattr(got, name)[r]) == _bits(getattr(ref, name)), name
            assert got.iterations == ref.iterations
            assert rngs[r].bit_generator.state == rng.bit_generator.state

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
    params = VrParams(tau=0.03, sigma=0.03, b=20, b_x=3, b_y=2, q=5, n_inner=37,
                      mu_x=1.0)
    return qfs.spec, sub, params, rng.standard_normal(4), rng.standard_normal(3)


def dro_fs_case():
    inst = dro_instance()
    p = inst.problem
    sched = theorem1_schedule(p.smoothness, p.convexity, NoiseLevels(0, 0), 0.1, 1.0)
    center = np.random.default_rng(6).standard_normal(p.n)
    sub = shifted_subproblem(p, center, sched.mu_x)
    params = VrParams(tau=sched.tau, sigma=sched.sigma, b=30, b_x=3, b_y=3, q=4,
                      n_inner=41, mu_x=sched.mu_x)
    return inst.finite_sum, sub, params, center, np.full(p.m, 1.0 / p.m)


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
    assert_close_vr_run(got, ref, params)
    got_log, ref_log = logs
    # one call per refresh, two per recursion step, and the initial y-batch
    q = params.q
    calls = 1 + sum(2 + (k % q > 0) + ((k + 1) % q > 0) for k in range(params.n_inner))
    assert len(got_log) == len(ref_log) == calls * log_calls
    for call_got, call_ref in zip(got_log, ref_log):
        assert call_got[0] == call_ref[0]
        assert _bits(call_got[1]) == _bits(call_ref[1])
        for a_got, a_ref in zip(call_got[2:], call_ref[2:]):
            assert_close(a_got, a_ref)


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
        first, _, dual = _stochastic_gradient(p, params, None)
        x, y = np.zeros(1), np.zeros(3)
        # copies: dual writes each direction into the same array
        return [first(x, y).copy()] + [dual(x, y).copy() for _ in range(2)]

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
    p, fs, objective, epoch_size, _ = cli._build_problem(cfg)
    per_iter = 2 * p.oracle_batch
    # the tuple cmd_solve builds for sgda-baseline
    params = SapdParams(cfg.tau, cfg.sigma, theta=0.0, rho=1.0, alpha=0.0, mu_x=0.0,
                        n_inner=cfg.budget_calls // per_iter)
    xs = []

    def spy(x):
        xs.append(x.copy())
        return objective(x)

    rows, note = cli._run_single_rep(0, cfg, p, fs, spy, params, None, epoch_size)
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
        assert_same_run(got, ref, params)
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
        assert_close_vr_run(got, ref, params)
        assert got_rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
        assert got_rng.sizes == blocks
        assert sum(ref_rng.sizes) == sum(blocks)
        assert max(blocks) <= CHUNK_VALUES


PROX_MAPS = {
    "identity": prox.prox_zero,
    # what a traced run hands the solver: a call that returns its argument
    "pass-through": lambda v, step: prox.prox_zero(v, step),
    "box": lambda v, step: np.clip(v, -2.0, 2.0),
}


@st.composite
def sapd_cases(draw):
    """A shifted random quadratic, its schedule and start point, drawn."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qs = datasets.make_quadratic_saddle(n, m, 1.0, 0.5, rng)
    noisy = draw(st.booleans())
    p = with_gaussian_noise(qs.problem, 0.3, 0.3) if noisy else qs.problem
    p = replace(p, prox_f=PROX_MAPS[draw(st.sampled_from(sorted(PROX_MAPS)))],
                prox_g=PROX_MAPS[draw(st.sampled_from(sorted(PROX_MAPS)))])
    step = st.floats(0.01, 0.6)
    params = SapdParams(
        tau=draw(step), sigma=draw(step),
        theta=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        rho=draw(st.sampled_from([1.0, 0.97, 0.7])),
        alpha=0.0, mu_x=1.0, n_inner=draw(st.integers(1, 80)))
    # standard normal starts: an exact -0.0 gradient, where theta = 0 and
    # the momentum form differ (TestSgdaDirection), has probability zero
    sub = shifted_subproblem(p, rng.standard_normal(n), params.mu_x)
    x0, y0 = rng.standard_normal(n), rng.standard_normal(m)
    # an early exit only without draws: blocked draws leave the generator
    # past the iterations a stopped stage never ran
    step_tol = 0.0 if noisy else draw(st.sampled_from([0.0, 1e-6]))
    return sub, params, x0, y0, step_tol


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=sapd_cases(), seed=st.integers(0, 2**32 - 1))
def test_sapd_run_matches_reference_on_drawn_cases(case, seed):
    """sapd_run against the frozen loop on drawn schedules, dimensions
    (n = m = 1 included), theta = 0 and > 0, rho = 1 and < 1, noise or
    none, and prox maps that are skipped, called and copied, or not the
    identity: every result field, the iterates and the generator state
    after the run, bit for bit; a run that diverges diverges in both, at
    the same iteration."""
    sub, params, x0, y0, step_tol = case
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    seen, on_iterate = recorder()
    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run, kwargs in ((sapd_run, dict(on_iterate=on_iterate)),
                            (reference_sapd_run, dict(record_iterates=True))):
            rng = got_rng if run is sapd_run else ref_rng
            try:
                outcomes.append(run(sub, params, x0, y0, rng, step_tol=step_tol,
                                    **kwargs))
            except DivergenceError as err:
                outcomes.append((str(err), err.iteration))
    got, ref = outcomes
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert_same_run(got, ref, params)
    assert_same_iterates(seen, ref.trace)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def pass_through(p):
    """p with each prox map that is prox_zero behind a wrapper, as a traced run
    sees it: the solver then calls it and copies its result."""
    return replace(p, **{name: PROX_MAPS["pass-through"] for name in ("prox_f", "prox_g")
                         if getattr(p, name) is prox.prox_zero})


@pytest.mark.parametrize("case", sorted(CASES))
def test_skipped_identity_prox_matches_the_called_one(case):
    sub, params, x0, y0 = CASES[case](0.3)
    wrapped = pass_through(sub)
    assert wrapped.prox_f is not sub.prox_f  # every case has an identity prox_f
    runs = [sapd_run(p, params, x0, y0, np.random.default_rng(17))
            for p in (sub, wrapped)]
    assert_same_result(*runs)


@pytest.mark.parametrize("case", sorted(VR_CASES))
def test_skipped_identity_prox_matches_the_called_one_vr(case):
    fs, sub, params, x0, y0 = VR_CASES[case]()
    wrapped = pass_through(sub)
    assert wrapped.prox_f is not sub.prox_f
    runs = [vr_sapd_run(fs, p, params, x0, y0, np.random.default_rng(23))
            for p in (sub, wrapped)]
    assert_same_result(*runs)


RESULT_ARRAYS = ("x_avg", "y_avg", "x_last", "y_last")


def assert_no_shared_memory(runs):
    """runs: (x0, y0, result) per run.  No result array shares memory with
    its run's start or with any array of another result."""
    arrays = []
    for x0, y0, res in runs:
        own = [getattr(res, name) for name in RESULT_ARRAYS]
        for a in own:
            assert not np.shares_memory(a, x0) and not np.shares_memory(a, y0)
        for i, a in enumerate(own):
            for b in own[i + 1:] + arrays:
                assert not np.shares_memory(a, b)
        arrays += own


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_share_no_memory(case):
    sub, params, x0, y0 = CASES[case](0.3)
    rng = np.random.default_rng(17)
    first = sapd_run(sub, params, x0, y0, rng)
    # a warm start from the first run's last iterate, as the nested prox does
    second = sapd_run(sub, params, first.x_last, first.y_last, rng)
    assert_no_shared_memory([(x0, y0, first), (first.x_last, first.y_last, second)])


def test_vr_results_share_no_memory():
    fs, sub, params, x0, y0 = VR_CASES["dro"]()
    rng = np.random.default_rng(23)
    runs = []
    for _ in range(2):
        res = vr_sapd_run(fs, sub, params, x0, y0, rng)
        runs.append((x0, y0, res))
        x0, y0 = res.x_last, res.y_last
    assert_no_shared_memory(runs)


def test_nested_prox_runs_share_no_memory(monkeypatch):
    # the nested path warm-starts each run at the last iterate of the one
    # before; its prox point is the last run's x_last
    runs = []

    def spy(p, params, x0, y0, rng, **kwargs):
        res = sapd_run(p, params, x0, y0, rng, **kwargs)
        runs.append((x0, y0, res))
        return res

    monkeypatch.setattr(evaluation, "sapd_run", spy)
    # runs of 10 iterations: the toy's prox point takes more than 30
    monkeypatch.setattr(evaluation, "PROX_BLOCK", 10)
    toy = datasets.make_bilinear_box_toy()
    x = np.array([0.7])
    est = moreau_stationarity(toy.problem, x, max_calls=3, tol=1e-30)
    assert len(runs) == 3
    assert_no_shared_memory(runs)
    assert est.prox_point is runs[-1][2].x_last
    assert not np.shares_memory(est.prox_point, x)


class WatchedUfunc:
    """A ufunc that counts its calls and fails one whose positional output
    shares memory with one of its inputs; it takes no keyword arguments,
    and its other attributes (reduce, ...) pass through."""

    def __init__(self, ufunc):
        self.ufunc, self.calls = ufunc, 0

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def __call__(self, *args):
        nin = self.ufunc.nin
        for out in args[nin:]:
            for operand in args[:nin]:
                assert not np.shares_memory(out, operand), self.ufunc.__name__
        self.calls += 1
        return self.ufunc(*args)


def per_iteration(iterations, multiply, add, subtract):
    return iterations, {"multiply": multiply * iterations, "add": add * iterations,
                        "subtract": subtract * iterations}


# Per iteration, the loop itself makes two products (sigma s, tau v), one sum
# (y + sigma s), one difference (x - tau v) and the running sum (a sum, and a
# product at rho < 1); the plain estimator's s = g + theta (g - g_k) adds a
# difference, a product and a sum at theta > 0.


def stochastic_bilinear_run():
    # rho < 1 and n = m = 1
    sub, params, x0, y0 = bilinear_case(0.3)
    assert params.rho < 1 and params.theta > 0 and (sub.n, sub.m) == (1, 1)
    iterations = sapd_run(sub, params, x0, y0, np.random.default_rng(17)).iterations
    return per_iteration(iterations, 4, 3, 2)


def sgda_baseline_run():
    # theta = 0 and rho = 1, as the CLI runs it
    cfg = cli.RunConfig(algo="sgda-baseline", tau=0.05, sigma=0.05, seed=8,
                        **SGDA_CASES["quadratic"])
    p, rows, note, _, _ = sgda_rep(cfg)
    assert note == "" and rows
    return per_iteration(cfg.budget_calls // (2 * p.oracle_batch), 2, 2, 1)


def vr_run():
    # the SPIDER estimator: v = u + grad_h(x) and s = 2 w - w_k every
    # iteration, and a difference and a sum per recursion step
    fs, sub, params, x0, y0 = VR_CASES["dro"]()
    iterations = vr_sapd_run(fs, sub, params, x0, y0,
                             np.random.default_rng(23)).iterations
    steps_x = sum(k % params.q > 0 for k in range(iterations))
    steps_y = sum((k + 1) % params.q > 0 for k in range(iterations))
    return iterations, {"multiply": 3 * iterations,
                        "add": 3 * iterations + steps_x + steps_y,
                        "subtract": 2 * iterations + steps_x + steps_y}


def replica_stack_run():
    # the loop on a stack of three replicas makes one replica's calls
    sub, params, x0, y0 = replica_stack_case()
    assert params.rho < 1 and params.theta > 0
    rngs = [np.random.default_rng(29 + r) for r in range(3)]
    return per_iteration(sapd_run(sub, params, x0, y0, rngs).iterations, 4, 3, 2)


def nested_prox_run():
    # mu_y = 0: the nested path, exact-gradient SAPD runs at theta = 1, rho = 1
    toy = datasets.make_bilinear_box_toy()
    assert toy.problem.convexity.mu_y == 0
    iterations = moreau_stationarity(toy.problem, np.array([0.7])).inner_iterations
    return per_iteration(iterations, 3, 3, 2)


@pytest.mark.parametrize("run", [stochastic_bilinear_run, sgda_baseline_run, vr_run,
                                 nested_prox_run, replica_stack_run],
                         ids=["bilinear-rho-below-1", "sgda", "vr", "nested-prox",
                              "replica-stack"])
def test_inner_loop_ufuncs_write_into_no_operand(monkeypatch, run):
    """Every intermediate of the inner iteration goes to a positional output
    array (see the sapd module docstring), and on one-element arrays numpy
    copies an operand that the output aliases, so no output may be one of
    the call's inputs.  The counts pin the calls per iteration."""
    watched = {name: WatchedUfunc(getattr(np, name))
               for name in ("multiply", "add", "subtract")}
    for name, ufunc in watched.items():
        monkeypatch.setattr(np, name, ufunc)
    iterations, expected = run()
    assert iterations > 0
    assert {name: ufunc.calls for name, ufunc in watched.items()} == expected
