import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import huber_prox
from sapdplus import datasets
from sapdplus.errors import ConfigurationError
from sapdplus.evaluation import PROX_BLOCK, moreau_stationarity
from sapdplus.outer import smooth_dual, smoothing_mu_hat
from sapdplus.params import theorem1_schedule
from sapdplus.problem import SmoothnessConstants

TOL = 1e-8


def smoothed_toy(c, mu_hat):
    """The bilinear toy with its dual smoothed around anchor 0."""
    return smooth_dual(datasets.make_bilinear_box_toy(c=c).problem, mu_hat, np.zeros(1))


def assert_certified(est, x, prox_point, tol):
    """reliable, within tol of the exact prox point, and its value within
    tol/lam of the exact ||x - prox||/lam."""
    assert est.reliable
    assert np.linalg.norm(est.prox_point - prox_point) <= tol
    assert abs(est.value - np.linalg.norm(x - prox_point) / est.lam) <= tol / est.lam


class TestMoreauStationarity:
    def test_zero_at_minimizer(self):
        # phi of the quadratic instance is minimized at the origin
        qs = datasets.make_quadratic_saddle(5, 4, 1.0, 1.0,
                                            np.random.default_rng(0))
        est = moreau_stationarity(qs.problem, np.zeros(5), tol=1e-10)
        assert est.reliable
        assert est.value < 1e-8

    def test_matches_closed_form(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            qs = datasets.make_quadratic_saddle(7, 4, 1.0, 0.8, rng)
            x = rng.standard_normal(7) * 2
            est = moreau_stationarity(qs.problem, x, tol=1e-10)
            ref = float(np.linalg.norm(qs.moreau_grad(x, est.lam)))
            assert est.reliable
            assert abs(est.value - ref) < 1e-6
            np.testing.assert_allclose(est.prox_point, qs.moreau_prox(x, est.lam),
                                       atol=1e-6)

    def test_finite_difference_of_envelope(self):
        # central differences of the envelope value, each obtained by an
        # independent nested solve, recover the gradient norm
        rng = np.random.default_rng(3)
        qs = datasets.make_quadratic_saddle(4, 3, 1.0, 1.0, rng)
        p = qs.problem
        x = rng.standard_normal(4)
        est = moreau_stationarity(p, x, tol=1e-10)
        lam = est.lam
        h = 1e-5

        def envelope(z):
            e = moreau_stationarity(p, z, lam=lam, tol=1e-11)
            w = e.prox_point
            return qs.phi(w) + float(np.sum((w - z) ** 2)) / (2 * lam)

        grad_fd = np.array([
            (envelope(x + h * np.eye(4)[j]) - envelope(x - h * np.eye(4)[j])) / (2 * h)
            for j in range(4)
        ])
        ref = qs.moreau_grad(x, lam)
        assert np.linalg.norm(grad_fd - ref) / np.linalg.norm(ref) < 1e-3
        assert abs(np.linalg.norm(grad_fd) - est.value) / est.value < 1e-3

    def test_envelope_gradient_lipschitz(self):
        rng = np.random.default_rng(4)
        qs = datasets.make_quadratic_saddle(5, 3, 1.0, 1.0, rng)
        lam = 0.5
        for _ in range(20):
            x1, x2 = rng.standard_normal((2, 5)) * 2
            g1 = np.linalg.norm(qs.moreau_grad(x1, lam))
            g2 = np.linalg.norm(qs.moreau_grad(x2, lam))
            assert abs(g1 - g2) <= np.linalg.norm(x1 - x2) / lam + 1e-12

    def test_unreliable_on_tiny_budget(self):
        # just past the kink of bilinear-wcmc's smoothed toy (mu_hat = 1/96)
        # the prox point needs ~1,600 accelerated steps; one block of
        # PROX_BLOCK certifies nothing
        p, x = smoothed_toy(10.0, 1.0 / 96.0), np.array([5.06])
        est = moreau_stationarity(p, x, max_calls=1)
        assert not est.reliable
        assert est.inner_iterations == PROX_BLOCK
        assert moreau_stationarity(p, x).reliable

    def test_lambda_range_enforced(self):
        qs = datasets.make_quadratic_saddle(3, 2, 1.0, 1.0,
                                            np.random.default_rng(6))
        with pytest.raises(ConfigurationError):
            moreau_stationarity(qs.problem, np.zeros(3), lam=2.0)

    def test_merely_concave_toy_matches_soft_threshold(self):
        toy = datasets.make_bilinear_box_toy(c=1.0, gamma=1.0)
        for xv in (0.2, 0.45, 0.8, -1.7, 0.0):
            x = np.array([xv])
            est = moreau_stationarity(toy.problem, x, tol=1e-9)
            assert est.reliable
            assert abs(est.value - toy.moreau_grad_norm(x, est.lam)) < 1e-6


class TestCertificate:
    """For mu_y > 0, reliable=True certifies ||prox_point - prox|| <= tol."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 6),
           gamma=st.floats(0.1, 3.0), mu_y=st.floats(0.05, 5.0),
           lam_frac=st.floats(0.02, 0.98), scale=st.floats(0.0, 10.0),
           slack=st.floats(1.0, 4.0), f_curv=st.sampled_from([0.0, 0.7]))
    def test_quadratic(self, seed, n, m, gamma, mu_y, lam_frac, scale, slack, f_curv):
        # slack loosens the declared l_xy and l_yy, which stay upper bounds: the
        # dual step then no longer lands on y* at once and its error term
        # counts; f_curv > 0 adds f = (f_curv/2)||x||^2 through prox_f
        rng = np.random.default_rng(seed)
        qs = datasets.make_quadratic_saddle(n, m, gamma, mu_y, rng)
        s = qs.problem.smoothness
        p = replace(qs.problem,
                    smoothness=SmoothnessConstants(s.l_xx, slack * s.l_xy, s.l_yx,
                                                   slack * s.l_yy),
                    prox_f=lambda v, step: v / (1.0 + step * f_curv))
        x = rng.standard_normal(n) * scale
        lam = lam_frac / gamma
        est = moreau_stationarity(p, x, lam=lam, tol=TOL)
        prox_point = np.linalg.solve((1.0 + lam * f_curv) * np.eye(n) + lam * qs.h, x)
        assert_certified(est, x, prox_point, TOL)

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(0.5, 10.0), mu_hat=st.floats(0.01, 1.0),
           lam_frac=st.floats(0.05, 0.95), xv=st.floats(-10.0, 10.0))
    def test_smoothed_bilinear_toy(self, c, mu_hat, lam_frac, xv):
        x = np.array([xv])
        est = moreau_stationarity(smoothed_toy(c, mu_hat), x, lam=lam_frac, tol=TOL)
        assert_certified(est, x, huber_prox(c, mu_hat, x, lam_frac), TOL)

    def test_no_certificate_below_rounding(self):
        # near the prox point u - w rounds to 0 while the gradient does not;
        # at a tol below that rounding a certificate would be false
        for seed in range(5):
            rng = np.random.default_rng(seed)
            qs = datasets.make_quadratic_saddle(5, 3, 1.0, 0.5, rng)
            x = rng.standard_normal(5) * 3
            est = moreau_stationarity(qs.problem, x, tol=1e-17, max_calls=2)
            error = np.linalg.norm(est.prox_point - qs.moreau_prox(x, est.lam))
            assert not est.reliable or error <= 1e-17

    def test_stage_one_checks_cost_a_fifth_of_a_stage(self):
        # smooth_then_solve checks after every stage; on bilinear-wcmc (c = 10,
        # eps = 1) a stage-1 point lies in +-[1, 5.1] for x0 in +-[6, 10], and
        # its check must certify within a fifth of the stage's iterations
        p = datasets.make_bilinear_box_toy(c=10.0).problem
        s = p.smoothness
        smoothed = smoothed_toy(10.0, smoothing_mu_hat(1.0, p.convexity.gamma, p.d_y,
                                                       s.l_yy, s.l_xy))
        n_inner = theorem1_schedule(smoothed.smoothness, smoothed.convexity,
                                    smoothed.noise, 1.0 / (2.0 * math.sqrt(6.0)),
                                    1.0).n_inner
        worst = 0
        for xv in np.linspace(1.0, 5.1, 83):
            for sign in (1.0, -1.0):
                est = moreau_stationarity(smoothed, np.array([sign * xv]))
                assert est.reliable, xv
                worst = max(worst, est.inner_iterations)
        assert worst <= n_inner // 5, (worst, n_inner)
