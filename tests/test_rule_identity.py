"""The quadratic-shift transform and the closed-form step rule against frozen
reference copies (tests/reference_kernels.py), and the properties the merged
step rule must keep.

`shifted_subproblem` and `smooth_dual` both go through `add_quadratic`; their
oracles must match the two separate transforms they replaced bit for bit.
`theorem1_schedule` and the manual CLI schedule take their tuple from
`step_rule`; the nested prox solve (mu_y = 0 only) keeps its own steps.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import theta_bar
from reference_kernels import (reference_cli_manual_alpha_rho,
                               reference_scsc_inner_params,
                               reference_shifted_subproblem,
                               reference_smooth_dual, reference_theorem1_steps)
from sapdplus import cli, datasets
from sapdplus.errors import ConfigurationError
from sapdplus.evaluation import prox_solve_params
from sapdplus.outer import smooth_dual
from sapdplus.params import (PSD_TOL, beta_of, build_lmi, step_rule,
                             theorem1_schedule)
from sapdplus.problem import (ConvexityModuli, NoiseLevels, SmoothnessConstants,
                              shifted_subproblem, with_gaussian_noise)

N, M = 6, 4
QUAD = datasets.make_quadratic_saddle(N, M, 1.0, 0.5, np.random.default_rng(3))
NOISY = with_gaussian_noise(QUAD.problem, 0.3, 0.2)
BILINEAR = datasets.make_bilinear_box_toy(c=10.0).problem


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def vectors(size):
    return st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=size,
                    max_size=size).map(np.array)


def scales(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def assert_same_oracles(got, ref, x, y, seed):
    assert _bits(got.grad_x(x, y)) == _bits(ref.grad_x(x, y))
    assert _bits(got.grad_y(x, y)) == _bits(ref.grad_y(x, y))
    assert (got.draw, got.draw_x, got.draw_y) == (ref.draw, ref.draw_x, ref.draw_y)
    for axis in ("x", "y"):
        g, r = getattr(got, "sgrad_" + axis), getattr(ref, "sgrad_" + axis)
        assert (g is None) == (r is None)
        if g is not None:
            draws = got.draw(np.random.default_rng(seed), getattr(got, "draw_" + axis))
            assert _bits(g(x, y, draws)) == _bits(r(x, y, draws))
    assert (got.smoothness, got.convexity) == (ref.smoothness, ref.convexity)


class TestQuadraticShift:
    @settings(max_examples=150, deadline=None)
    @given(x=vectors(N), y=vectors(M), center=vectors(N), mu_x=scales(-3, 3),
           noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_shifted_subproblem_matches_reference(self, x, y, center, mu_x,
                                                  noisy, seed):
        p = NOISY if noisy else QUAD.problem
        assert_same_oracles(shifted_subproblem(p, center, mu_x),
                            reference_shifted_subproblem(p, center, mu_x),
                            x, y, seed)

    @settings(max_examples=150, deadline=None)
    @given(x=vectors(N), y=vectors(M), anchor=vectors(M), mu_hat=scales(-6, 2),
           noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_smooth_dual_matches_reference(self, x, y, anchor, mu_hat, noisy, seed):
        p = NOISY if noisy else QUAD.problem
        assert_same_oracles(smooth_dual(p, mu_hat, anchor),
                            reference_smooth_dual(p, mu_hat, anchor), x, y, seed)

    @settings(max_examples=50, deadline=None)
    @given(x=vectors(1), y=vectors(1), anchor=vectors(1), mu_hat=scales(-6, 2))
    def test_smooth_dual_on_the_bilinear_toy(self, x, y, anchor, mu_hat):
        assert_same_oracles(smooth_dual(BILINEAR, mu_hat, anchor),
                            reference_smooth_dual(BILINEAR, mu_hat, anchor), x, y, 0)

    def test_shifted_oracles_compose(self):
        # a stage subproblem of the smoothed problem shifts both axes
        x, y = np.linspace(-1, 1, N), np.linspace(2, 3, M)
        got = shifted_subproblem(smooth_dual(NOISY, 0.1, np.ones(M)), np.zeros(N), 2.0)
        ref = reference_shifted_subproblem(
            reference_smooth_dual(NOISY, 0.1, np.ones(M)), np.zeros(N), 2.0)
        assert_same_oracles(got, ref, x, y, 5)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_center_shape_checked(self, axis):
        with pytest.raises(ConfigurationError, match="center has shape"):
            if axis == "x":
                shifted_subproblem(QUAD.problem, np.zeros(N + 1), 1.0)
            else:
                smooth_dual(QUAD.problem, 0.1, np.zeros(M + 1))


constants = st.builds(
    lambda l_xx, l_xy, l_yx, l_yy, zero_l_yy, gamma, mu_y: (
        SmoothnessConstants(l_xx, l_xy, l_yx, 0.0 if zero_l_yy else l_yy),
        ConvexityModuli(gamma, mu_y)),
    scales(-1, 1), scales(-1, 1), scales(-1, 1), scales(-1, 1), st.booleans(),
    scales(-1, 1), scales(-2, 1))
noise_levels = st.builds(
    lambda dx, dy, on: NoiseLevels(dx if on else 0.0, dy if on else 0.0),
    scales(-2, 0), scales(-2, 0), st.booleans())


def hexes(params):
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in (params.tau, params.sigma, params.theta, params.rho,
                           params.alpha, params.mu_x, params.n_inner))


class TestStepRule:
    @settings(max_examples=200, deadline=None)
    @given(sc=constants, noise=noise_levels, eps=scales(-2, 0))
    def test_theorem1_schedule_is_the_rule_at_its_theta(self, sc, noise, eps):
        s, c = sc
        sched = theorem1_schedule(s, c, noise, eps, 1.0)
        assert hexes(sched.sapd_params()) == hexes(step_rule(sched.theta, c.gamma, s, c))
        tau, sigma, alpha, n_inner = reference_theorem1_steps(
            sched.theta, c.gamma, c.mu_y, s.l_yy)
        assert (sched.tau.hex(), sched.sigma.hex(), sched.alpha.hex(),
                sched.n_inner) == (tau.hex(), sigma.hex(), alpha.hex(), n_inner)
        assert sched.rho == sched.theta

    def test_noise_floor_near_one_certifies(self):
        # theta = theta_dbar_1 = 1 - 8.2e-9 here, with entries of G up to
        # 1.2e9; the exact min eigenvalue of this float tuple is -1.4e-17,
        # and the assembly must not lose it to cancellation (it once came
        # out -5.2e-8)
        sched = theorem1_schedule(SmoothnessConstants(1.0, 1.0, 1.0, 1.0),
                                  ConvexityModuli(10.0, 0.1),
                                  NoiseLevels(1.0, 0.31622776601683794),
                                  10.0**-1.75, 1.0)
        assert sched.certificate.feasible
        assert sched.certificate.min_eigenvalue >= -PSD_TOL

    @settings(max_examples=200, deadline=None)
    @given(sc=constants)
    def test_rule_certifies_at_theta_bar(self, sc):
        s, c = sc
        theta = theta_bar(beta_of(s, c), s, c, c.gamma)
        assume(0 < theta < 1)
        sp = step_rule(theta, c.gamma, s, c)
        cert = build_lmi(sp.tau, sp.sigma, sp.theta, sp.rho, sp.alpha, sp.mu_x, s, c)
        assert cert.feasible, cert.min_eigenvalue

    @pytest.mark.filterwarnings("ignore:gamma exceeds l_xx")
    @settings(max_examples=200, deadline=None)
    @given(sc=constants, concave=st.booleans(), lam_frac=st.floats(0.05, 0.95))
    def test_prox_solve_params_match_reference(self, sc, concave, lam_frac):
        s, c = sc
        if concave:
            c = ConvexityModuli(c.gamma, 0.0)
        p = replace(BILINEAR, smoothness=s, convexity=c)
        mu_x = 1.0 / (lam_frac / c.gamma) - c.gamma
        if c.mu_y > 0:
            # a strongly concave problem takes the certificate path instead
            with pytest.raises(ConfigurationError):
                prox_solve_params(p, mu_x)
            return
        got = prox_solve_params(p, mu_x)
        tau, sigma, theta, rho, alpha, n_inner = reference_scsc_inner_params(s, c, mu_x)
        assert hexes(got) == (tau.hex(), sigma.hex(), float(theta).hex(),
                              float(rho).hex(), alpha.hex(), mu_x.hex(), n_inner)


class TestManualSchedule:
    QUAD_CLI = cli._build_problem(cli.RunConfig(problem="quadratic"))[0]

    @staticmethod
    def manual(problem, p, theta, tau, sigma):
        cfg = cli.RunConfig(problem=problem, schedule="manual", tau=tau,
                            sigma=sigma, theta=theta, n_inner=5)
        return cli._resolve_schedule(cfg, p.smoothness, p.convexity, p.noise)[0]

    @settings(max_examples=100, deadline=None)
    @given(theta=st.floats(0.01, 1.0), tau=scales(-3, 0), sigma=scales(-3, 0))
    def test_cli_alpha_rho_follow_the_rule(self, theta, tau, sigma):
        p = self.QUAD_CLI
        got = self.manual("quadratic", p, theta, tau, sigma)
        rule = step_rule(theta, p.convexity.gamma, p.smoothness, p.convexity,
                         tau=tau, sigma=sigma, n_inner=5)
        assert hexes(got) == hexes(rule)
        # away from the alpha = 1/sigma boundary and from theta = 1 the
        # rule keeps the tuple the CLI computed with its own clamps
        assume(math.sqrt(theta) * p.smoothness.l_yy * sigma > 1e-6)
        assume(theta <= 1.0 - 1e-12 or theta == 1.0)
        assert (got.alpha, got.rho) == reference_cli_manual_alpha_rho(
            theta, sigma, p.smoothness.l_yy)

    def test_rho_is_theta_just_below_one(self):
        # the CLI used rho = min(theta, 1 - 1e-12); the rule keeps rho = theta
        theta = 1.0 - 2**-50
        got = self.manual("quadratic", self.QUAD_CLI, theta, 0.1, 0.1)
        assert got.rho == theta
        assert reference_cli_manual_alpha_rho(theta, 0.1, 1.0)[1] == 1.0 - 1e-12

    def test_alpha_clamp_at_l_yy_zero(self):
        # l_yy = 0 puts alpha on the boundary; the CLI now shaves it like the
        # theory schedule, by 1e-9 (it used 1e-12)
        p = cli._build_problem(cli.RunConfig(problem="bilinear"))[0]
        assert p.smoothness.l_yy == 0
        got = self.manual("bilinear", p, 0.5, 0.1, 0.2)
        assert got.alpha == (1.0 - 1e-9) / 0.2
        assert got.rho == 0.5
