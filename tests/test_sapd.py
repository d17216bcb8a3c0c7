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
from sapdplus import datasets
from sapdplus.errors import DivergenceError
from sapdplus.params import theorem1_schedule
from sapdplus.problem import NoiseLevels, shifted_subproblem, with_gaussian_noise
from sapdplus.sapd import DIVERGENCE_NORM, SapdParams, _guard, _step_norm, sapd_run


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
