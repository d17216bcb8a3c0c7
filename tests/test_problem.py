from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_quadratic_finite_sum
from sapdplus import datasets
from sapdplus.errors import ConfigurationError
from sapdplus.problem import (ConvexityModuli, FiniteSumSpec, NoiseLevels,
                              ProblemSpec, SmoothnessConstants,
                              shifted_subproblem, with_gaussian_noise)
from sapdplus.prox import prox_zero
from sapdplus.sapd import SapdParams, sapd_run


def bilinear_1d(gamma=1.0):
    return ProblemSpec(
        n=1, m=1,
        grad_x=lambda x, y: y.copy(),
        grad_y=lambda x, y: x.copy(),
        prox_f=prox_zero, prox_g=prox_zero,
        smoothness=SmoothnessConstants(3.0, 1.0, 1.0, 0.0),
        convexity=ConvexityModuli(gamma, 0.5),
    )


class TestConstants:
    def test_coupling_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SmoothnessConstants(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            SmoothnessConstants(1.0, 1.0, -1.0, 0.0)

    def test_gamma_positive(self):
        with pytest.raises(ConfigurationError):
            ConvexityModuli(0.0, 1.0)

    def test_noise_finite(self):
        with pytest.raises(ConfigurationError):
            NoiseLevels(np.inf, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", range(4))
    def test_smoothness_finite(self, bad, at):
        # a NaN once passed every comparison and certified
        values = [1.0, 1.0, 1.0, 1.0]
        values[at] = bad
        with pytest.raises(ConfigurationError, match="must be finite"):
            SmoothnessConstants(*values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", range(2))
    def test_convexity_finite(self, bad, at):
        values = [1.0, 1.0]
        values[at] = bad
        with pytest.raises(ConfigurationError, match="must be finite"):
            ConvexityModuli(*values)

    def test_gamma_above_lxx_warns(self):
        p = bilinear_1d()
        with pytest.warns(UserWarning):
            ProblemSpec(
                n=1, m=1, grad_x=p.grad_x, grad_y=p.grad_y,
                prox_f=prox_zero, prox_g=prox_zero,
                smoothness=SmoothnessConstants(0.5, 1.0, 1.0, 0.0),
                convexity=ConvexityModuli(2.0, 0.5),
            )


class TestShiftedSubproblem:
    def test_bilinear_grad_x(self):
        # Phi = x*y, center 0, mu_x = 1, gamma = 1: grad_x(1,2) = 2 + 2*1 = 4
        sub = shifted_subproblem(bilinear_1d(gamma=1.0), np.zeros(1), 1.0)
        got = sub.grad_x(np.array([1.0]), np.array([2.0]))
        np.testing.assert_allclose(got, [4.0])

    def test_constants_updated(self):
        sub = shifted_subproblem(bilinear_1d(gamma=1.0), np.zeros(1), 1.0)
        assert sub.smoothness.l_xx == 5.0  # 3 + 1 + 1

    def test_grad_y_unchanged(self):
        sub = shifted_subproblem(bilinear_1d(gamma=1.0), np.zeros(1), 1.0)
        np.testing.assert_allclose(sub.grad_y(np.array([1.0]), np.array([2.0])),
                                   [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            shifted_subproblem(bilinear_1d(), np.zeros(3), 1.0)

    def test_nonpositive_mu_x(self):
        with pytest.raises(ConfigurationError):
            shifted_subproblem(bilinear_1d(), np.zeros(1), 0.0)

    def test_strong_convexity_on_quadratics(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            qs = datasets.make_quadratic_saddle(6, 4, 1.0, 1.0,
                                                np.random.default_rng(trial))
            mu_x = 10 ** rng.uniform(-1, 1)
            sub = shifted_subproblem(qs.problem, rng.standard_normal(6), mu_x)
            y = rng.standard_normal(4)
            for _ in range(10):
                x1 = rng.standard_normal(6)
                x2 = rng.standard_normal(6)
                inner = float((sub.grad_x(x1, y) - sub.grad_x(x2, y)) @ (x1 - x2))
                assert inner >= mu_x * np.sum((x1 - x2) ** 2) - 1e-9

    def test_lipschitz_certification(self):
        rng = np.random.default_rng(1)
        qs = datasets.make_quadratic_saddle(5, 3, 1.0, 0.7, rng)
        p = qs.problem
        s = p.smoothness
        for _ in range(50):
            x1, x2 = rng.standard_normal((2, 5))
            y1, y2 = rng.standard_normal((2, 3))
            lhs = np.linalg.norm(p.grad_x(x1, y1) - p.grad_x(x2, y2))
            rhs = s.l_xx * np.linalg.norm(x1 - x2) + s.l_xy * np.linalg.norm(y1 - y2)
            assert lhs <= rhs + 1e-9
            lhs = np.linalg.norm(p.grad_y(x1, y1) - p.grad_y(x2, y2))
            rhs = s.l_yx * np.linalg.norm(x1 - x2) + s.l_yy * np.linalg.norm(y1 - y2)
            assert lhs <= rhs + 1e-9


SHIFT_CASES = {
    "dro": lambda: datasets.build_dro(datasets.synthetic_logistic_dataset(
        30, 4, np.random.default_rng(1)), sgrad_batch=5),
    "quadratic": lambda: make_quadratic_finite_sum(12, 4, 3, 1.0, 1.0,
                                                   np.random.default_rng(2)),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(SHIFT_CASES)),
       mu_x=st.floats(1e-3, 1e2), seed=st.integers(0, 2**32 - 1))
def test_shift_carries_the_shared_term(kind, mu_x, seed):
    # one transform shifts everything a stage reads: the shared x-term
    # grad_h gains the proximal term, so a VR stage's batch mean plus
    # grad_h estimates what the shifted sgrad_x does
    case = SHIFT_CASES[kind]()
    p, fs = (case.problem, case.finite_sum) if kind == "dro" else (
        case.base.problem, case.spec)
    rng = np.random.default_rng(seed)
    c, x = rng.standard_normal(p.n), 3.0 * rng.standard_normal(p.n)
    sub = shifted_subproblem(p, c, mu_x)
    shift = (mu_x + p.convexity.gamma) * (x - c)
    want = shift if p.grad_h is None else p.grad_h(x) + shift
    assert sub.grad_h(x).tobytes() == want.tobytes()
    if kind == "dro":
        y, idx = rng.dirichlet(np.ones(p.m)), fs.sample(rng, 5)
        batch = fs.batch_grad_x(idx, x, y)
        assert sub.sgrad_x(x, y, idx).tobytes() == (batch + p.grad_h(x) + shift).tobytes()
        # (batch + h) + shift against batch + (h + shift): the same sum in
        # another association, so equal to rounding, not in every bit
        bound = 2 * np.finfo(float).eps * (abs(batch) + abs(p.grad_h(x)) + abs(shift))
        assert np.all(abs(sub.sgrad_x(x, y, idx) - (batch + sub.grad_h(x))) <= bound)


class TestFiniteSum:
    def make_two_component(self):
        grads = np.array([[1.0, 0.0], [3.0, 0.0]])

        def batch_grad_x(idx, x, y):
            return grads[np.asarray(idx)].mean(axis=0)

        def batch_grad_y(idx, x, y):
            return np.zeros(1)

        return FiniteSumSpec(n_comp=2, batch_grad_x=batch_grad_x,
                             batch_grad_y=batch_grad_y,
                             as_smoothness=SmoothnessConstants(1, 1, 1, 0))

    def test_mean_of_two(self):
        fs = self.make_two_component()
        got = fs.batch_grad_x(np.array([0, 1]), np.zeros(2), np.zeros(1))
        np.testing.assert_allclose(got, [2.0, 0.0])

    def test_full_batch_identity(self):
        rng = np.random.default_rng(2)
        qfs = make_quadratic_finite_sum(12, 4, 3, 1.0, 1.0, rng)
        x, y = rng.standard_normal(4), rng.standard_normal(3)
        full = qfs.spec.batch_grad_x(np.arange(12), x, y)
        np.testing.assert_allclose(full, qfs.base.problem.grad_x(x, y), atol=1e-10)

    def test_single_draw_monte_carlo(self):
        rng = np.random.default_rng(3)
        qfs = make_quadratic_finite_sum(10, 3, 2, 1.0, 1.0, rng)
        x, y = rng.standard_normal(3), rng.standard_normal(2)
        full = qfs.spec.batch_grad_x(np.arange(10), x, y)
        draws = np.array([
            qfs.spec.batch_grad_x(qfs.spec.sample(rng, 1), x, y)
            for _ in range(10_000)
        ])
        err = np.abs(draws.mean(axis=0) - full)
        se = draws.std(axis=0) / np.sqrt(10_000)
        assert np.all(err <= 3 * se + 1e-12)

    def test_empty_batch(self):
        # the sampler is the only source of batches; it never yields an empty one
        fs = self.make_two_component()
        with pytest.raises(ConfigurationError):
            fs.sample(np.random.default_rng(0), 0)

    def test_out_of_range(self):
        fs = self.make_two_component()
        idx = fs.sample(np.random.default_rng(0), 1000)
        assert idx.min() == 0 and idx.max() == fs.n_comp - 1

    def test_component_almost_sure_lipschitz(self):
        rng = np.random.default_rng(4)
        qfs = make_quadratic_finite_sum(8, 3, 2, 1.0, 1.0, rng)
        s = qfs.spec.as_smoothness
        for i in range(8):
            for _ in range(20):
                x1, x2 = rng.standard_normal((2, 3))
                y1, y2 = rng.standard_normal((2, 2))
                gx1 = qfs.spec.batch_grad_x([i], x1, y1)
                gx2 = qfs.spec.batch_grad_x([i], x2, y2)
                bound = (s.l_xx * np.linalg.norm(x1 - x2)
                         + s.l_xy * np.linalg.norm(y1 - y2))
                assert np.linalg.norm(gx1 - gx2) <= bound + 1e-9
                gy1 = qfs.spec.batch_grad_y([i], x1, y1)
                gy2 = qfs.spec.batch_grad_y([i], x2, y2)
                bound = (s.l_yx * np.linalg.norm(x1 - x2)
                         + s.l_yy * np.linalg.norm(y1 - y2))
                assert np.linalg.norm(gy1 - gy2) <= bound + 1e-9


class TestStochasticOracles:
    def test_unbiasedness_gaussian(self):
        rng = np.random.default_rng(5)
        qs = datasets.make_quadratic_saddle(4, 3, 1.0, 1.0, rng)
        p = with_gaussian_noise(qs.problem, 0.5, 0.7)
        x, y = rng.standard_normal(4), rng.standard_normal(3)
        gx = p.grad_x(x, y)
        draws = np.array([p.sgrad_x(x, y, p.draw(rng, p.draw_x)) for _ in range(10_000)])
        err = np.abs(draws.mean(axis=0) - gx)
        assert np.all(err <= 4 * draws.std(axis=0) / 100.0 + 1e-12)

    def test_noise_estimator_recovers_levels(self):
        # Monte-Carlo E||xi||^2 = delta^2, the NoiseLevels convention
        rng = np.random.default_rng(6)
        qs = datasets.make_quadratic_saddle(4, 3, 1.0, 1.0, rng)
        p = with_gaussian_noise(qs.problem, 0.5, 0.7)
        x, y = np.zeros(4), np.zeros(3)
        gx, gy = p.grad_x(x, y), p.grad_y(x, y)
        sq_x = sq_y = 0.0
        for _ in range(4000):
            sq_x += float(np.sum((p.sgrad_x(x, y, p.draw(rng, p.draw_x)) - gx) ** 2))
            sq_y += float(np.sum((p.sgrad_y(x, y, p.draw(rng, p.draw_y)) - gy) ** 2))
        assert p.noise == NoiseLevels(0.5, 0.7)
        assert abs(np.sqrt(sq_x / 4000) - 0.5) < 0.05
        assert abs(np.sqrt(sq_y / 4000) - 0.7) < 0.05

    def test_deterministic_fallback(self):
        # an axis without a stochastic oracle draws nothing: a run given an
        # rng is the exact run and leaves the generator where it was
        qs = datasets.make_quadratic_saddle(3, 2, 1.0, 1.0, np.random.default_rng(7))
        p = qs.problem
        assert (p.sgrad_x, p.sgrad_y, p.draw_x, p.draw_y) == (None, None, 0, 0)
        params = SapdParams(tau=0.1, sigma=0.1, theta=0.5, rho=1.0, alpha=0.0,
                            mu_x=1.0, n_inner=20)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        got = sapd_run(p, params, np.ones(3), np.ones(2), rng)
        exact = sapd_run(p, params, np.ones(3), np.ones(2), None)
        assert np.array_equal(got.x_avg, exact.x_avg)
        assert np.array_equal(got.y_avg, exact.y_avg)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("sizes", [(0, 0), (1, 2), (0, 1)])
    def test_draw_sizes_must_match_the_oracles(self, sizes):
        # a stochastic axis needs a draw callable and a positive size; an
        # exact axis draws nothing
        noisy = with_gaussian_noise(bilinear_1d(), 0.5, 0.0)
        assert (noisy.draw_x, noisy.draw_y) == (1, 0)
        with pytest.raises(ConfigurationError, match="draw size"):
            replace(noisy, draw_x=sizes[0], draw_y=sizes[1])
        with pytest.raises(ConfigurationError, match="draw size"):
            replace(noisy, draw=None)
