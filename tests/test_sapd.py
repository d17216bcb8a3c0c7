import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import make_scsc_quadratic, shifted_saddle
from reference_loops import reference_guard
from stage_map import stage_map
from sapdplus import datasets
from sapdplus.errors import DivergenceError
from sapdplus.params import step_rule, theorem1_schedule
from sapdplus.problem import (NoiseLevels, replica_safe, shifted_subproblem,
                              with_gaussian_noise)
from sapdplus.sapd import (DIVERGENCE_NORM, SapdParams, _guard, _stacked_guard, _step_norm,
                           sapd_run, takes_replica_stacks)


def iterates(p, params, x0, y0, rng, **kwargs):
    """(result, [(x_k, y_k) for k = 1..N]) of a sapd_run, seen through on_iterate."""
    seen = []
    res = sapd_run(p, params, x0, y0, rng,
                   on_iterate=lambda k, x, y: seen.append((x.copy(), y.copy())),
                   **kwargs)
    return res, seen


def scsc_toy():
    """L(x,y) = x^2/2 + x y - y^2/2 as the mu_x = 1 shift of Phi = -x^2/2 + x y."""
    qs = make_scsc_quadratic([[-1.0]], [[1.0]], mu_y=1.0, gamma=1.0)
    sub = shifted_subproblem(qs.problem, np.zeros(1), 1.0)
    return qs, sub


class TestWeightedAverage:
    """x_avg and y_avg are the rho^{-k}-weighted averages of the recorded iterates."""

    @staticmethod
    def noisy_run(theta, rho, n_inner, seed):
        qs, sub = scsc_toy()
        noisy = with_gaussian_noise(sub, 0.3, 0.3)
        params = SapdParams(tau=0.05, sigma=0.05, theta=theta, rho=rho, alpha=0.0,
                            mu_x=1.0, n_inner=n_inner)
        return iterates(noisy, params, np.ones(1), np.ones(1),
                        np.random.default_rng(seed))

    def test_rho_one_is_mean(self):
        res, trace = self.noisy_run(0.0, 1.0, 7, 0)
        xs, ys = (np.array(z) for z in zip(*trace))
        np.testing.assert_allclose(res.x_avg, xs.mean(axis=0), atol=1e-14)
        np.testing.assert_allclose(res.y_avg, ys.mean(axis=0), atol=1e-14)

    def test_two_iterates(self):
        res, ((x1, y1), (x2, y2)) = self.noisy_run(0.5, 0.5, 2, 1)
        np.testing.assert_allclose(res.x_avg, (x1 + 2 * x2) / 3.0, atol=1e-15)
        np.testing.assert_allclose(res.y_avg, (y1 + 2 * y2) / 3.0, atol=1e-15)

    def test_long_run_against_high_precision(self):
        res, trace = self.noisy_run(0.9, 0.9, 200, 1)
        zs = [float(x[0]) for x, _ in trace]
        with mpmath.workdps(50):
            r = mpmath.mpf("0.9")
            num = mpmath.fsum(r ** (-k) * mpmath.mpf(zs[k]) for k in range(200))
            den = mpmath.fsum(r ** (-k) for k in range(200))
            ref = float(num / den)
        got = float(res.x_avg[0])
        assert math.isfinite(got)
        assert abs(got - ref) < 1e-10


class TestSapdRun:
    def test_theta_zero_single_iteration_is_gda(self):
        qs, sub = scsc_toy()
        params = SapdParams(tau=0.2, sigma=0.3, theta=0.0, rho=1.0, alpha=0.0,
                            mu_x=1.0, n_inner=1)
        x0, y0 = np.array([1.0]), np.array([-0.5])
        res = sapd_run(sub, params, x0, y0, rng=None)
        y1 = y0 + 0.3 * sub.grad_y(x0, y0)
        x1 = x0 - 0.2 * sub.grad_x(x0, y1)
        np.testing.assert_allclose(res.y_last, y1, atol=1e-15)
        np.testing.assert_allclose(res.x_last, x1, atol=1e-15)

    def test_single_iteration_average(self):
        qs, sub = scsc_toy()
        params = SapdParams(tau=0.2, sigma=0.3, theta=0.5, rho=0.5, alpha=0.0,
                            mu_x=1.0, n_inner=1)
        res = sapd_run(sub, params, np.array([1.0]), np.array([1.0]), rng=None)
        np.testing.assert_array_equal(res.x_avg, res.x_last)
        np.testing.assert_array_equal(res.y_avg, res.y_last)

    def test_toy_contracts_with_schedule(self):
        qs, sub = scsc_toy()
        sched = theorem1_schedule(qs.problem.smoothness, qs.problem.convexity,
                                  NoiseLevels(0, 0), 0.1, 1.0)
        z0 = np.array([1.0]), np.array([2.0])
        res = sapd_run(sub, sched.sapd_params(), *z0, rng=None)
        d0 = math.hypot(1.0, 2.0)
        d1 = math.hypot(float(res.x_avg[0]), float(res.y_avg[0]))
        assert d1 < d0  # saddle of the shifted toy is the origin

    def test_oracle_accounting(self):
        # count the gradient calls the run makes, per axis
        qs, sub = scsc_toy()
        calls = {"x": 0, "y": 0}

        def counted(axis, grad):
            def call(x, y):
                calls[axis] += 1
                return grad(x, y)
            return call

        sub = replace(sub, grad_x=counted("x", sub.grad_x),
                      grad_y=counted("y", sub.grad_y))
        params = SapdParams(tau=0.1, sigma=0.1, theta=0.8, rho=0.8, alpha=0.0,
                            mu_x=1.0, n_inner=13)
        res = sapd_run(sub, params, np.ones(1), np.ones(1), rng=None)
        assert params.oracle_calls(res.iterations) == (calls["x"], calls["y"]) == (13, 14)
        assert params.draws(res.iterations, 3) == 3 * (2 * 13 + 1)

    def test_seed_determinism(self):
        qs, sub = scsc_toy()
        noisy = with_gaussian_noise(sub, 0.3, 0.3)
        params = SapdParams(tau=0.05, sigma=0.05, theta=0.8, rho=0.8, alpha=0.0,
                            mu_x=1.0, n_inner=40)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            runs.append(iterates(noisy, params, np.ones(1), np.ones(1), rng)[1])
        assert len(runs[0]) == len(runs[1]) == 40
        for (xa, ya), (xb, yb) in zip(*runs):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_divergence_guard(self):
        qs, sub = scsc_toy()
        params = SapdParams(tau=50.0, sigma=50.0, theta=1.0, rho=1.0, alpha=0.0,
                            mu_x=1.0, n_inner=500)
        with pytest.raises(DivergenceError) as err:
            sapd_run(sub, params, np.array([1.0]), np.array([1.0]), rng=None)
        assert err.value.iteration is not None

    def test_deterministic_contraction_random_instances(self):
        # monotone decrease of last-iterate distance after a short burn-in,
        # and averaged output no worse than the start
        for seed in range(8):
            rng = np.random.default_rng(seed)
            qs = datasets.make_quadratic_saddle(6, 5, 1.0, 1.0, rng)
            sched = theorem1_schedule(qs.problem.smoothness, qs.problem.convexity,
                                      NoiseLevels(0, 0), 0.1, 1.0)
            center = rng.standard_normal(6)
            sub = shifted_subproblem(qs.problem, center, sched.mu_x)
            xs, ys = shifted_saddle(qs, center, sched.mu_x)
            x0 = center + rng.standard_normal(6)
            y0 = rng.standard_normal(5)
            res, trace = iterates(sub, sched.sapd_params(), x0, y0, None)
            dists = [math.sqrt(np.sum((x - xs) ** 2) + np.sum((y - ys) ** 2))
                     for x, y in trace]
            burn = 5
            assert all(dists[k + 1] <= dists[k] * (1 + 1e-9)
                       for k in range(burn, len(dists) - 1))
            d_start = math.sqrt(np.sum((x0 - xs) ** 2) + np.sum((y0 - ys) ** 2))
            d_avg = math.sqrt(np.sum((res.x_avg - xs) ** 2)
                              + np.sum((res.y_avg - ys) ** 2))
            assert d_avg <= d_start

    def test_step_tol_early_exit(self):
        qs, sub = scsc_toy()
        params = SapdParams(tau=0.2, sigma=0.2, theta=0.75, rho=0.75, alpha=0.0,
                            mu_x=1.0, n_inner=10_000)
        res = sapd_run(sub, params, np.ones(1), np.ones(1), rng=None,
                       step_tol=1e-12)
        assert res.iterations < 10_000
        assert res.last_step_norm <= 1e-12


class TestGuard:
    """The one-comparison guard against the frozen two-pass reference guard."""

    @staticmethod
    def outcome(guard, x, y, k=3):
        # the guard takes the joint iterate (x, y), the reference x and y
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        args = (np.concatenate([x, y]),) if guard is _guard else (x, y)
        try:
            with np.errstate(over="ignore"):  # squares of finite values may overflow
                guard(*args, k)
        except DivergenceError as err:
            assert err.iteration == k
            return str(err)
        return None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite(self, bad, axis):
        x, y = np.array([0.5, 1.0]), np.array([2.0])
        (x if axis == "x" else y)[-1] = bad
        msg = self.outcome(_guard, x, y)
        assert msg == "non-finite iterate at inner iteration 3"
        assert msg == self.outcome(reference_guard, x, y)

    def test_squares_overflow_while_finite(self):
        msg = self.outcome(_guard, [1e200], [1.0])
        assert msg == "iterate norm above guard at inner iteration 3"
        assert msg == self.outcome(reference_guard, [1e200], [1.0])

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 7)])
    def test_norm_around_bound(self, n, m):
        # the whole norm sits at (1 -+ 1e-9) * DIVERGENCE_NORM, split over x and y
        for scale, expect_raise in ((1 - 1e-9, False), (1 + 1e-9, True)):
            coord = scale * DIVERGENCE_NORM / math.sqrt(n + m)
            x, y = np.full(n, coord), np.full(m, -coord)
            msg = self.outcome(_guard, x, y)
            assert (msg is not None) == expect_raise
            assert msg == self.outcome(reference_guard, x, y)

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                       max_size=6),
           ys=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                       max_size=6))
    def test_agrees_with_reference_off_the_boundary(self, xs, ys):
        values = xs + ys
        if all(math.isfinite(v) for v in values):
            # exact sum of squares; the two guards may round it differently
            # only within a hair of the bound
            exact = sum(Fraction(v) ** 2 for v in values)
            bound = Fraction(DIVERGENCE_NORM**2)
            assume(abs(exact - bound) > bound * Fraction(1, 10**9))
        assert self.outcome(_guard, xs, ys) == self.outcome(reference_guard, xs, ys)


class TestStackedGuard:
    """The guard of a replica stack: one dot product over the flat joint
    array (x rows, then y rows), and _guard on each replica's joined
    (x_r, y_r) only when that dot fails."""

    reps, n, m = 4, 3, 5

    def stack(self, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((self.reps, self.n)), rng.standard_normal((self.reps, self.m))

    def flat(self, x, y):
        return np.concatenate([x.ravel(), y.ravel()])

    def test_a_stack_above_the_bound_with_every_row_below_it_passes(self):
        # every row's norm at 0.6 of the bound, so the stack's at 1.2 of it
        coord = 0.6 * DIVERGENCE_NORM / math.sqrt(self.n + self.m)
        x, y = np.full((self.reps, self.n), coord), np.full((self.reps, self.m), -coord)
        z = self.flat(x, y)
        assert not z.dot(z) <= DIVERGENCE_NORM**2
        assert all(TestGuard.outcome(_guard, x[r], y[r]) is None for r in range(self.reps))
        _stacked_guard(self.reps, self.n)(z, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2 * DIVERGENCE_NORM])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("failing", [(0,), (2,), (1, 3)])
    def test_names_the_first_failing_replica(self, bad, axis, failing):
        x, y = self.stack()
        for r in failing:
            (x if axis == "x" else y)[r, -1] = bad
        with pytest.raises(DivergenceError) as err:
            _stacked_guard(self.reps, self.n)(self.flat(x, y), 3)
        first = failing[0]
        # the message and iteration of the lone replica's guard
        lone = TestGuard.outcome(_guard, x[first], y[first])
        assert lone is not None and lone == TestGuard.outcome(reference_guard, x[first],
                                                              y[first])
        assert (str(err.value), err.value.iteration, err.value.replica) == (lone, 3, first)

    @pytest.mark.parametrize("scale", [1 - 1e-9, 1 - 1e-15, 1 + 1e-15, 1 + 1e-9])
    @pytest.mark.parametrize("others", [0.0, 1e-3])
    def test_decides_by_each_row_around_the_bound(self, scale, others):
        # row 2 within a hair of the bound: inside the margin the stack's
        # dot leaves the decision to the row's own guard
        coord = scale * DIVERGENCE_NORM / math.sqrt(self.n + self.m)
        x, y = np.full((self.reps, self.n), others), np.full((self.reps, self.m), others)
        x[2], y[2] = coord, -coord
        lone = TestGuard.outcome(_guard, x[2], y[2])
        try:
            _stacked_guard(self.reps, self.n)(self.flat(x, y), 3)
        except DivergenceError as err:
            assert (str(err), err.replica) == (lone, 2)
        else:
            assert lone is None

    def test_a_later_failure_of_another_kind_is_not_named(self):
        # row 1 is above the bound and row 2 non-finite: row 1 is named
        x, y = self.stack()
        x[1, 0], y[2, 0] = 2 * DIVERGENCE_NORM, np.nan
        with pytest.raises(DivergenceError) as err:
            _stacked_guard(self.reps, self.n)(self.flat(x, y), 0)
        assert (str(err.value), err.value.replica) == (
            "iterate norm above guard at inner iteration 0", 1)


def test_a_stack_hands_out_contiguous_blocks():
    # spy oracles and a spy prox on each axis (neither is prox_zero, so both
    # are called): every stacked x, y and prox argument is C-contiguous, and
    # each x and y is the first or the second block of a flat joint array of
    # R (n + m) entries, as a 1-D run's are of one of n + m
    ds = datasets.synthetic_logistic_dataset(30, 4, np.random.default_rng(2))
    p = datasets.build_dro(ds, sgrad_batch=3).problem
    params = theorem1_schedule(p.smoothness, p.convexity, p.noise, 0.05, 1.0).sapd_params()
    params = replace(params, n_inner=6)
    seen = {"x": [], "y": [], "prox": []}

    def spy(fn, *names):
        @replica_safe
        def call(*args):
            for name, arg in zip(names, args):
                seen[name].append(arg)
            return fn(*args)
        return call

    p = replace(p, sgrad_x=spy(p.sgrad_x, "x", "y"), sgrad_y=spy(p.sgrad_y, "x", "y"),
                prox_f=spy(p.prox_f, "prox"), prox_g=spy(p.prox_g, "prox"))
    assert takes_replica_stacks(p)

    def is_block(z, rows, offset):
        # z starts `offset` entries into a flat array of R (n + m) entries
        base = z.base
        return (base.ndim == 1 and base.size == math.prod(rows) * (p.n + p.m)
                and z.ctypes.data == base.ctypes.data + offset * base.itemsize)

    for rows in ((3,), ()):
        for name in seen:
            seen[name].clear()
        rngs = [np.random.default_rng(r) for r in range(3)] if rows else np.random.default_rng(0)
        x0, y0 = np.zeros(rows + (p.n,)), np.full(rows + (p.m,), 1.0 / p.m)
        res = sapd_run(p, params, x0, y0, rngs)
        assert len(seen["x"]) == 2 * params.n_inner + 1
        assert len(seen["prox"]) == 2 * params.n_inner
        for name, args in seen.items():
            size = p.m if name == "y" else None
            for arg in args:
                assert arg.shape[:-1] == rows and arg.flags.c_contiguous, name
                assert size is None or arg.shape[-1] == size
        size_x = math.prod(rows) * p.n
        assert all(is_block(x, rows, 0) for x in seen["x"] + [res.x_last])
        assert all(is_block(y, rows, size_x) for y in seen["y"] + [res.y_last])
        assert res.x_last.base is res.y_last.base
        assert res.x_last.flags.c_contiguous and res.y_last.flags.c_contiguous


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 30), data=st.data())
def test_step_norm_matches_numpy_sqrt_of_sums(n, m, data):
    # math.sqrt and np.sqrt both round the square root correctly, and
    # ndarray.sum is np.sum, so the two forms agree bit for bit
    floats = st.floats(-1e150, 1e150, allow_nan=False)
    x_new, x, y_new, y = (np.array(data.draw(st.lists(floats, min_size=k, max_size=k)))
                          for k in (n, n, m, m))
    expected = float(np.sqrt(np.sum((x_new - x) ** 2) + np.sum((y_new - y) ** 2)))
    got = _step_norm(x_new, y_new, x, y)
    assert type(got) is float
    assert got.hex() == expected.hex()


# the stage map and sapd_run round differently; over 3,000 drawn stages in
# the ranges below the gap stayed under 2e-13 of the largest output entry
MAP_TOL = 1e-11


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0.3, 0.999), tau_scale=st.floats(-2.0, 0.5),
       sigma_scale=st.floats(-2.0, 0.5), n_inner=st.integers(1, 200),
       n=st.integers(1, 6), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_a_deterministic_stage_is_its_affine_map(theta, tau_scale, sigma_scale, n_inner,
                                                 n, m, seed):
    # step_rule's tau and sigma times e^scale; the shift is mu_x + gamma
    rng = np.random.default_rng(seed)
    qs = datasets.make_quadratic_saddle(n, m, 1.0, 0.6, rng)
    p = qs.problem
    rule = step_rule(theta, qs.gamma, p.smoothness, p.convexity)
    params = step_rule(theta, qs.gamma, p.smoothness, p.convexity,
                       tau=rule.tau * math.exp(tau_scale),
                       sigma=rule.sigma * math.exp(sigma_scale), n_inner=n_inner)
    center, x0, y0 = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(m)
    try:
        res = sapd_run(shifted_subproblem(p, center, params.mu_x), params, x0, y0, None)
    except DivergenceError:
        assume(False)  # the larger steps of the range can leave the guard's ball
    want = (res.x_avg, res.y_avg, res.x_last, res.y_last)
    scale = max(1.0, max(float(np.abs(z).max()) for z in want))
    for got, run in zip(stage_map(qs, params, center)(x0, y0), want):
        assert np.abs(got - run).max() <= MAP_TOL * scale
