import numpy as np
import pytest

from sapdplus import datasets
from sapdplus.errors import ConfigurationError
from sapdplus.evaluation import moreau_stationarity


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
        qs = datasets.make_quadratic_saddle(6, 4, 1.0, 0.5,
                                            np.random.default_rng(5))
        x = np.ones(6) * 3
        est = moreau_stationarity(qs.problem, x, tol=1e-14, max_calls=1)
        assert not est.reliable

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
