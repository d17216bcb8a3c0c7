import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exact_psd import exact_g, is_psd, shifted
from fixtures import theta_bar
from sapdplus import datasets
from sapdplus.errors import ConfigurationError, InfeasibleScheduleError
from sapdplus.outer import _smoothing_plan, smooth_then_solve
from reference_kernels import (reference_lmi_sign_flipped_feasible,
                               reference_vr_lmi_min_eigenvalue,
                               reference_vr_schedule_steps)
from sapdplus.params import (PSD_TOL, _square, beta_of, build_lmi, build_vr_lmi, certify,
                             inner_iterations, smoothing_mu_hat, step_rule,
                             theorem1_schedule, theta_bar_components, theta_noise_floor,
                             vr_batch_floor, vr_schedule)
from sapdplus.problem import (ConvexityModuli, NoiseLevels, ProblemSpec,
                              SmoothnessConstants)
from sapdplus.prox import prox_zero
from sapdplus.sapd import SapdParams
from sapdplus.vr import VrParams

CANON_S = SmoothnessConstants(1.0, 1.0, 1.0, 1.0)
CANON_C = ConvexityModuli(1.0, 1.0)


def check_sufficient_conditions(tau, sigma, theta, pi1, pi2, smoothness,
                                convexity, mu_x) -> bool:
    """The four-inequality sufficient system for the 5x5 certificate (rho = theta).

    tau >= (1-theta)/mu_x,  sigma >= (1-theta)/(mu_y theta),
    1/tau >= l'_xx + pi1 l_yx,  1/sigma >= theta l_yx/pi1 + (theta/pi2 + pi2) l_yy.

    The published parameter choices satisfy some of these with equality, so
    each comparison carries a relative slack of 1e-12.
    """
    if min(tau, sigma, theta, pi1, pi2, mu_x) <= 0:
        raise ConfigurationError("all arguments must be positive")
    s, mu_y = smoothness, convexity.mu_y
    lp_xx = s.l_xx + mu_x + convexity.gamma

    def geq(lhs, rhs):
        return lhs >= rhs - 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    return (
        geq(tau, (1.0 - theta) / mu_x)
        and geq(sigma, (1.0 - theta) / (mu_y * theta))
        and geq(1.0 / tau, lp_xx + pi1 * s.l_yx)
        and geq(1.0 / sigma, theta * s.l_yx / pi1 + (theta / pi2 + pi2) * s.l_yy)
    )


def theta_bar_1_oracle(beta, s, c, mu_x):
    """Independent root computation: smallest theta with
    l_yx^2 (1-theta)^2 + beta mu_y l'_xx (1-theta) - beta mu_y mu_x <= 0."""
    lp = s.l_xx + mu_x + c.gamma
    a, b_, c_ = s.l_yx**2, beta * c.mu_y * lp, -beta * c.mu_y * mu_x
    u = (-b_ + math.sqrt(b_**2 - 4 * a * c_)) / (2 * a)
    return 1.0 - u


def theta_bar_2_oracle(beta, s, c):
    """Smallest theta with (2 l_yy / mu_y) (1-theta)/sqrt(theta) <= 1 - beta."""
    if s.l_yy == 0:
        return 0.0
    root = (-(1 - beta) * c.mu_y
            + math.sqrt((1 - beta) ** 2 * c.mu_y**2 + 16 * s.l_yy**2)) / (4 * s.l_yy)
    return root**2


def random_tuple(rng):
    s = SmoothnessConstants(*(10 ** rng.uniform(-1, 1, 4)))
    c = ConvexityModuli(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-2, 1))
    return s, c


class TestBeta:
    def test_canonical(self):
        assert beta_of(CANON_S, CANON_C) == 0.25

    def test_mu_dominant(self):
        # mu_y = 4 gamma and l_yx >= 2 l_xy: gamma/(4 mu_y) = 1/16 wins
        s = SmoothnessConstants(1.0, 1.0, 2.0, 1.0)
        c = ConvexityModuli(1.0, 4.0)
        assert beta_of(s, c) == 1.0 / 16.0

    def test_coupling_dominant(self):
        s = SmoothnessConstants(1.0, 100.0, 1.0, 1.0)
        assert beta_of(s, CANON_C) == 1.0 / 200.0

    def test_merely_concave_rejected(self):
        with pytest.raises(ConfigurationError):
            beta_of(CANON_S, ConvexityModuli(1.0, 0.0))


class TestThetaBar:
    def test_canonical_tb1(self):
        tb1, tb2 = theta_bar_components(0.25, CANON_S, CANON_C, mu_x=1.0)
        assert abs(tb1 - 0.75) < 1e-12
        assert abs(tb1 - theta_bar_1_oracle(0.25, CANON_S, CANON_C, 1.0)) < 1e-12

    def test_canonical_tb2(self):
        _, tb2 = theta_bar_components(0.25, CANON_S, CANON_C, mu_x=1.0)
        oracle = theta_bar_2_oracle(0.25, CANON_S, CANON_C)
        assert abs(tb2 - oracle) < 1e-12
        assert abs(tb2 - 0.6888) < 5e-4  # hand evaluation of the printed form
        assert theta_bar(0.25, CANON_S, CANON_C, 1.0) == max(0.75, tb2)

    def test_lyy_zero(self):
        s = SmoothnessConstants(1.0, 1.0, 1.0, 0.0)
        _, tb2 = theta_bar_components(0.25, s, CANON_C, mu_x=1.0)
        assert tb2 == 0.0

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            s, c = random_tuple(rng)
            mu_x = c.gamma
            beta = beta_of(s, c)
            tb1, tb2 = theta_bar_components(beta, s, c, mu_x)
            assert abs(tb1 - theta_bar_1_oracle(beta, s, c, mu_x)) < 1e-10
            assert abs(tb2 - theta_bar_2_oracle(beta, s, c)) < 1e-10


class TestNoiseFloor:
    def test_deterministic(self):
        assert theta_noise_floor(CANON_C, NoiseLevels(0, 0), 0.1) == (0.0, 0.0)

    def test_boundary(self):
        # eps^2/delta_x^2 = 384 makes the first floor exactly 0
        delta = 0.1 / math.sqrt(384)
        td1, _ = theta_noise_floor(CANON_C, NoiseLevels(delta, 0), 0.1)
        assert abs(td1) < 1e-12

    def test_half(self):
        # gamma = mu_y and eps^2/delta_y^2 = 3840: floor (1 + 1)^{-1} = 0.5
        delta_y = 0.1 / math.sqrt(3840)
        _, td2 = theta_noise_floor(CANON_C, NoiseLevels(0, delta_y), 0.1)
        assert abs(td2 - 0.5) < 1e-12

    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            theta_noise_floor(CANON_C, NoiseLevels(0, 0), 0.0)


class TestTheorem1Schedule:
    def test_canonical(self):
        sched = theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), 0.1, 1.0)
        assert abs(sched.theta - 0.75) < 1e-12
        assert abs(sched.tau - 0.25) < 1e-12
        assert abs(sched.sigma - 1.0 / 3.0) < 1e-12
        assert sched.n_inner == 21  # ceil(ln 265 / ln(4/3)) + 1
        assert abs(sched.alpha - (3.0 - math.sqrt(0.75))) < 1e-12
        assert sched.certificate.feasible

    def test_t_outer_arithmetic(self):
        sched = theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), 0.1, 1.0)
        assert sched.t_outer == 9601

    def test_noise_dominant_still_feasible(self):
        # delta large enough that the second noise floor dominates
        sched = theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0.0, 5.0), 0.1, 1.0)
        assert sched.theta == sched.theta_dbar_2
        assert sched.theta > sched.theta_bar_1
        assert sched.certificate.feasible

    def test_n_rule(self):
        assert inner_iterations(0.75) == 21
        assert inner_iterations(0.9) == math.ceil(math.log(265) / math.log(1 / 0.9)) + 1

    def test_no_momentum_bound_refuses_a_sample_of_constants(self):
        # theta_bar_1 = 1 - c (sqrt(1 + r) - 1) once rounded to 1 wherever r
        # fell below about 1e-16, and 53 of these 300 draws were refused with
        # "momentum lower bound 1 >= 1"; now 270 give schedules and 30 are
        # refused by the certificate
        rng = np.random.default_rng(2026)
        refusals = []
        for _ in range(300):
            l_xx, l_xy, l_yx, l_yy, gamma, mu_y = 10 ** rng.uniform(-8, 8, 6)
            try:
                theorem1_schedule(SmoothnessConstants(l_xx, l_xy, l_yx, l_yy),
                                  ConvexityModuli(gamma, mu_y), NoiseLevels(0, 0), 0.05, 1.0)
            except InfeasibleScheduleError as err:
                refusals.append(str(err))
        assert [r for r in refusals if r.startswith("momentum lower bound")] == []


class TestSufficientConditions:
    def exact_pis(self, theta, s, c):
        sigma = (1 - theta) / (c.mu_y * theta)
        pi2 = math.sqrt(theta)
        denom = 1.0 - sigma * (pi2 + theta / pi2) * s.l_yy
        pi1 = sigma * theta * s.l_yx / denom
        return pi1, pi2

    def test_schedule_passes(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s, c = random_tuple(rng)
            sched = theorem1_schedule(s, c, NoiseLevels(0, 0), 0.1, 1.0)
            pi1, pi2 = self.exact_pis(sched.theta, s, c)
            assert pi1 > 0
            assert check_sufficient_conditions(sched.tau, sched.sigma, sched.theta,
                                               pi1, pi2, s, c, sched.mu_x)

    def test_tau_doubled_fails(self):
        sched = theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), 0.1, 1.0)
        pi1, pi2 = self.exact_pis(sched.theta, CANON_S, CANON_C)
        lp = CANON_S.l_xx + sched.mu_x + CANON_C.gamma
        bad_tau = 2.0 / (lp + pi1 * CANON_S.l_yx)
        assert not check_sufficient_conditions(bad_tau, sched.sigma, sched.theta,
                                               pi1, pi2, CANON_S, CANON_C, sched.mu_x)

    def test_theta_near_one(self):
        theta = 1.0 - 1e-9
        tau = 0.2
        sigma = 0.2
        # first two inequalities are trivial near theta = 1
        assert tau >= (1 - theta) / 1.0 and sigma >= (1 - theta) / (1.0 * theta)


class TestLmi:
    def test_schedule_sweep_feasible(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s, c = random_tuple(rng)
            sched = theorem1_schedule(s, c, NoiseLevels(0, 0), 0.1, 1.0)
            assert sched.certificate.min_eigenvalue >= -PSD_TOL

    def test_alpha_boundary_rejected(self):
        with pytest.raises(ConfigurationError):
            build_lmi(0.25, 1 / 3, 0.75, 0.75, 3.0, 1.0, CANON_S, CANON_C)

    def test_sign_flipped_agreement(self):
        rng = np.random.default_rng(3)
        agree = 0
        for _ in range(200):
            s, c = random_tuple(rng)
            tau, sigma = 10 ** rng.uniform(-2, 0.5, 2)
            theta = rng.uniform(0.05, 1.0)
            rho = rng.uniform(max(0.05, theta - 0.3), 1.0)
            alpha = rng.uniform(0, 1) / sigma
            mu_x = 10 ** rng.uniform(-1, 1)
            g = build_lmi(tau, sigma, theta, rho, alpha, mu_x, s, c)
            assert g.feasible == reference_lmi_sign_flipped_feasible(
                tau, sigma, theta, rho, alpha, mu_x, s, c)
            agree += g.feasible
        assert 0 < agree < 200  # both outcomes exercised

    def test_theta_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s, c = random_tuple(rng)
            sched = theorem1_schedule(s, c, NoiseLevels(0, 0), 0.1, 1.0)
            for bump in (0.2, 0.5, 0.9):
                theta = sched.theta + bump * (1.0 - sched.theta)
                tau = (1 - theta) / c.gamma
                sigma = (1 - theta) / (c.mu_y * theta)
                alpha = 1 / sigma - math.sqrt(theta) * s.l_yy
                cert = build_lmi(tau, sigma, theta, theta, alpha, sched.mu_x, s, c)
                assert cert.feasible

    def test_bisection_matches_closed_form(self):
        # smallest feasible theta under the pi-substitution (pi1 = sigma theta
        # l_yx / beta, pi2 = sqrt(theta)) equals max(theta_bar_1, theta_bar_2)
        rng = np.random.default_rng(5)
        for _ in range(200):
            s, c = random_tuple(rng)
            mu_x = c.gamma
            beta = beta_of(s, c)
            tb1, tb2 = theta_bar_components(beta, s, c, mu_x)
            target = max(tb1, tb2)

            def feasible(theta):
                tau = (1 - theta) / mu_x
                sigma = (1 - theta) / (c.mu_y * theta)
                pi1 = sigma * theta * s.l_yx / beta
                return check_sufficient_conditions(tau, sigma, theta, pi1,
                                                   math.sqrt(theta), s, c, mu_x)

            lo, hi = 1e-9, 1.0 - 1e-12
            assert feasible(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            assert abs(hi - target) < 1e-6


def exact_min_eigenvalue(tau, sigma, theta, rho, alpha, mu_x, s, c):
    """Smallest eigenvalue of the printed G at a float tuple, in 60 digits."""
    with mpmath.workdps(60):
        tau, sigma, theta, rho, alpha, mu_x, l_xx, l_xy, l_yx, l_yy, gamma, mu_y = map(
            mpmath.mpf, (tau, sigma, theta, rho, alpha, mu_x, s.l_xx, s.l_xy, s.l_yx,
                         s.l_yy, c.gamma, c.mu_y))
        off = theta / rho - 1
        g = mpmath.zeros(5, 5)
        g[0, 0] = (1 / tau) * (1 - 1 / rho) + mu_x / rho
        g[1, 1] = (1 / sigma) * (1 - 1 / rho) + mu_y
        g[1, 2] = g[2, 1] = off * l_yx
        g[1, 3] = g[3, 1] = off * l_yy
        g[2, 2] = 1 / tau - (l_xx + mu_x + gamma)
        g[3, 3] = 1 / sigma - alpha
        g[2, 4] = g[4, 2] = -(theta / rho) * l_yx
        g[3, 4] = g[4, 3] = -(theta / rho) * l_yy
        g[4, 4] = alpha / rho
        return float(min(mpmath.eigsy(g, eigvals_only=True)))


def scales(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# the verdicts may differ where the exact eigenvalue lies within this
# distance of the threshold -PSD_TOL
VERDICT_BAND = 0.1 * PSD_TOL


@settings(max_examples=300, deadline=None)
@given(s=st.builds(SmoothnessConstants, scales(-1, 1), scales(-1, 1), scales(-1, 1),
                   st.one_of(st.just(0.0), scales(-1, 1))),
       c=st.builds(ConvexityModuli, scales(-1, 1), scales(-2, 1)),
       gap=scales(-12, -0.01),
       tau_factor=st.one_of(st.just(1.0), scales(-0.5, 0.5)),
       sigma_factor=st.one_of(st.just(1.0), scales(-0.5, 0.5)),
       rho=st.one_of(st.none(), st.floats(0.05, 1.0)))
def test_certificate_verdict_is_exact(s, c, gap, tau_factor, sigma_factor, rho):
    # the step-rule tuple at theta = 1 - gap, up to theta = 1 - 1e-12, where G
    # has entries of order 1/gap; scaling tau or sigma or moving rho off
    # theta leaves it, mostly infeasibly
    theta = 1.0 - gap
    sp = step_rule(theta, c.gamma, s, c)
    sp = step_rule(theta, c.gamma, s, c, tau=sp.tau * tau_factor,
                   sigma=sp.sigma * sigma_factor)
    rho = theta if rho is None else rho
    exact = exact_min_eigenvalue(sp.tau, sp.sigma, theta, rho, sp.alpha, sp.mu_x, s, c)
    assume(abs(exact + PSD_TOL) > VERDICT_BAND)
    cert = build_lmi(sp.tau, sp.sigma, theta, rho, sp.alpha, sp.mu_x, s, c)
    assert cert.feasible == (exact >= -PSD_TOL), (cert.min_eigenvalue, exact)


def test_the_exact_psd_test_agrees_with_60_digit_eigenvalues():
    # random tuples, mostly not PSD, and step-rule tuples above the momentum
    # bound with tau and sigma moved off the boundary of the cone
    rng = np.random.default_rng(3)
    psd = 0
    for k in range(40):
        s, c = random_tuple(rng)
        if k % 2:
            sched = theorem1_schedule(s, c, NoiseLevels(0, 0), 0.1, 1.0)
            theta = rho = sched.theta + rng.uniform(0.2, 0.9) * (1.0 - sched.theta)
            sp = step_rule(theta, c.gamma, s, c)
            tau, sigma, alpha, mu_x = sp.tau * 1.001, sp.sigma * 1.001, sp.alpha, sp.mu_x
        else:
            tau, sigma = 10 ** rng.uniform(-2, 0.5, 2)
            theta = rng.uniform(0.05, 1.0)
            rho = rng.uniform(max(0.05, theta - 0.3), 1.0)
            alpha = rng.uniform(0, 1) / sigma
            mu_x = 10 ** rng.uniform(-1, 1)
        exact = exact_min_eigenvalue(tau, sigma, theta, rho, alpha, mu_x, s, c)
        assert abs(exact) > 1e-30
        verdict = is_psd(exact_g(tau, sigma, theta, rho, alpha, mu_x, s, c))
        assert verdict == (exact > 0)
        psd += verdict
    assert 0 < psd < 40  # both outcomes exercised


def _quad_wcsc_hand_tuple():
    p = datasets.make_quadratic_saddle(10, 5, 1.0, 0.5, np.random.default_rng(7)).problem
    s, c = p.smoothness, p.convexity
    theta = 0.95
    sigma = (1.0 - theta) / (c.mu_y * theta)
    return SapdParams(tau=(1.0 - theta) / c.gamma, sigma=sigma, theta=theta, rho=theta,
                      alpha=1.0 / sigma - math.sqrt(theta) * s.l_yy, mu_x=c.gamma,
                      n_inner=200), s, c


def _dro_cli_theory_tuple():
    ds = datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    p = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=1.0 / 1000**2).problem
    sched = theorem1_schedule(p.smoothness, p.convexity, p.noise, 0.05, 1.0)
    return sched, p.smoothness, p.convexity


def _bilinear_wcmc_theory_tuple():
    toy = datasets.make_bilinear_box_toy(c=10.0)
    smoothed, cfg, _ = _smoothing_plan(toy.problem, 1.0, np.zeros(toy.problem.m))
    return cfg.schedule, smoothed.smoothness, smoothed.convexity


SHIPPED_TUPLES = {
    "check-params-default": lambda: (
        theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), 0.05, 1.0), CANON_S, CANON_C),
    "dro-cli-theory": _dro_cli_theory_tuple,
    "quad-wcsc-hand": _quad_wcsc_hand_tuple,
    "bilinear-wcmc-theory": _bilinear_wcmc_theory_tuple,
}
# the shipped tuples whose exact G is PSD with no shift at all
EXACTLY_PSD = {"dro-cli-theory", "quad-wcsc-hand", "bilinear-wcmc-theory"}


@pytest.mark.parametrize("name", SHIPPED_TUPLES)
def test_a_shipped_tuple_is_psd_within_a_relative_shift(name):
    """The contract pinned here: for each tuple that the package or its
    benchmark ships, the exact G at its float fields and float constants,
    plus 1e-16 max|G_ij| I, is positive semidefinite, decided over the
    rationals (exact_psd).

    The rules put their tuples on the boundary of the PSD cone: G[0,0] =
    (mu_x tau + rho - 1)/(tau rho) is 0 at tau = (1 - theta)/mu_x and
    rho = theta.  So the unshifted G may lie a rounding outside the cone,
    where the float certificate still reads 0.  check-params' default
    tuple does (smallest exact eigenvalue about -5.6e-17), and so did the
    DRO CLI theory tuple while theta_bar_1 cancelled; the other three are
    PSD as they stand.
    """
    tup, s, c = SHIPPED_TUPLES[name]()
    g = exact_g(tup.tau, tup.sigma, tup.theta, tup.rho, tup.alpha, tup.mu_x, s, c)
    assert is_psd(shifted(g, Fraction(1, 10**16)))
    if name in EXACTLY_PSD:
        assert is_psd(g)


class TestVrSchedule:
    def test_q1_formulas(self):
        params, cert, t_outer = vr_schedule(CANON_S, CANON_C, NoiseLevels(0, 0),
                                            0.1, 1.0, q=1, b_x=4, b_y=4)
        lp = 1.0 + 2.0  # l_xx + 2 gamma
        assert abs(params.tau - 1.0 / (1.0 + lp)) < 1e-12
        assert abs(params.sigma - 1.0 / (2.0 + 1.0)) < 1e-12
        assert cert.feasible

    def test_deterministic_batch_floor(self):
        assert vr_batch_floor(NoiseLevels(0, 0), CANON_C, 0.1) == 1

    def test_batch_floor_formula(self):
        nz = NoiseLevels(0.5, 0.2)
        c = ConvexityModuli(2.0, 0.5)
        expected = math.ceil(max(144 * 0.25, 360 * 0.04 * 4.0) / 0.01)
        assert vr_batch_floor(nz, c, 0.1) == expected

    def test_outer_count(self):
        _, _, t_outer = vr_schedule(CANON_S, CANON_C, NoiseLevels(0, 0),
                                    0.1, 1.0, q=2, b_x=4, b_y=4)
        assert t_outer == math.ceil(288 * 1.0 * 1.0 / 0.01)

    def test_sweep_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s, c = random_tuple(rng)
            q = int(rng.integers(1, 20))
            params, cert, _ = vr_schedule(s, c, NoiseLevels(0, 1.0), 0.1, 1.0,
                                          q=q, b_x=int(rng.integers(1, 16)),
                                          b_y=int(rng.integers(1, 16)))
            assert cert.min_eigenvalue >= -PSD_TOL
            assert params.b >= 1

    @pytest.mark.parametrize("eps,gap0,err", [
        # eps = 0 once raised ZeroDivisionError in the batch floor, and a
        # negative eps or gap0 gave the schedule of |eps| and T = 1
        pytest.param(0.0, 1.0, "epsilon must be positive", id="eps-0"),
        pytest.param(-0.05, 1.0, "epsilon must be positive", id="eps-negative"),
        pytest.param(0.1, -1.0, "gap0 must be nonnegative", id="gap0-negative")])
    def test_refuses_the_targets_theorem1_refuses(self, eps, gap0, err):
        with pytest.raises(ConfigurationError, match=err):
            theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), eps, gap0)
        with pytest.raises(ConfigurationError, match=err):
            vr_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), eps, gap0, q=1, b_x=4, b_y=4)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_batch_floor_refuses_a_target_not_above_0(self, eps):
        with pytest.raises(ConfigurationError, match="epsilon must be positive"):
            vr_batch_floor(NoiseLevels(0.5, 0.2), CANON_C, eps)


def _dro_vr_constants():
    # the benchmark's DRO instance, deterministic and almost-sure constants:
    # here l_xx + 2 gamma (vr_schedule) and (l_xx + gamma) + gamma
    # (build_vr_lmi) round to different floats
    ds = datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=1.0 / 1000**2)
    c = inst.problem.convexity
    return [(inst.problem.smoothness, c), (inst.finite_sum.as_smoothness, c)]


DRO_VR = _dro_vr_constants()
_scale = st.floats(-2, 2).map(lambda e: 10.0**e)
vr_constants = st.builds(
    lambda l_xx, l_xy, l_yx, l_yy, zero_l_yy, gamma, mu_y: (
        SmoothnessConstants(l_xx, l_xy, l_yx, 0.0 if zero_l_yy else l_yy),
        ConvexityModuli(gamma, mu_y)),
    _scale, _scale, _scale, _scale, st.booleans(), _scale, _scale)


@pytest.mark.filterwarnings("ignore:large batch b below")
@settings(max_examples=300, deadline=None)
@given(sc=st.one_of(st.sampled_from(DRO_VR), vr_constants), q=st.integers(1, 20),
       b_x=st.integers(1, 100), b_y=st.integers(1, 100), zeta=st.floats(0.5, 64.0),
       eps=_scale, mu_x=st.one_of(st.none(), _scale), tau_f=st.floats(0.1, 10.0),
       sigma_f=st.floats(0.1, 1.0))
@example(sc=DRO_VR[0], q=10, b_x=10, b_y=10, zeta=32.0, eps=0.05, mu_x=None,
         tau_f=1.0, sigma_f=1.0)
@example(sc=DRO_VR[1], q=10, b_x=10, b_y=10, zeta=32.0, eps=0.05, mu_x=None,
         tau_f=1.0, sigma_f=1.0)
def test_vr_rule_matches_frozen_formulas(sc, q, b_x, b_y, zeta, eps, mu_x, tau_f,
                                         sigma_f):
    # the VR schedule's (tau, sigma, N, T) and the VR certificate's smallest
    # eigenvalue, bit for bit against the correction terms written out in
    # each, as they were before the two shared one helper
    s, c = sc
    tau, sigma, n_inner, t_outer = reference_vr_schedule_steps(
        s, c, eps, 1.0, q, b_x, b_y, zeta)
    ref_eig = reference_vr_lmi_min_eigenvalue(tau, sigma, q, b_x, b_y, c.gamma, s, c)
    if ref_eig < -PSD_TOL:
        with pytest.raises(InfeasibleScheduleError, match="the VR schedule does not certify"):
            vr_schedule(s, c, NoiseLevels(0, 0), eps, 1.0, q, b_x, b_y, zeta)
    else:
        params, cert, got_t = vr_schedule(s, c, NoiseLevels(0, 0), eps, 1.0,
                                          q, b_x, b_y, zeta)
        assert (params.tau.hex(), params.sigma.hex(), params.n_inner, got_t) == (
            tau.hex(), sigma.hex(), n_inner, t_outer)
        assert cert.min_eigenvalue.hex() == ref_eig.hex()
    # a certificate of a tuple off the rule, as the CLI's manual VR schedule
    # asks for one; sigma_f <= 1 keeps alpha = l_yx + l_yy <= 1/sigma
    mu_x = c.gamma if mu_x is None else mu_x
    tau, sigma = tau * tau_f, sigma * sigma_f
    got = build_vr_lmi(tau, sigma, q, b_x, b_y, mu_x, s, c)
    assert got.min_eigenvalue.hex() == reference_vr_lmi_min_eigenvalue(
        tau, sigma, q, b_x, b_y, mu_x, s, c).hex()


@pytest.mark.filterwarnings("ignore:large batch b below")
@settings(max_examples=200, deadline=None)
@given(s=st.builds(SmoothnessConstants, scales(-2, 2), scales(-2, 2), scales(-2, 2),
                   st.one_of(st.just(0.0), scales(-2, 2))),
       c=st.builds(ConvexityModuli, scales(-2, 2), scales(-2, 2)),
       tau=scales(-3, 1), sigma_f=st.floats(0.01, 1.0), theta=st.floats(0.0, 1.0),
       rho=st.floats(0.05, 1.0), alpha_f=st.floats(0.0, 0.999), mu_x=scales(-2, 2),
       q=st.integers(1, 20), b_x=st.integers(1, 100), b_y=st.integers(1, 100))
def test_certify_matches_build_lmi_and_build_vr_lmi(s, c, tau, sigma_f, theta, rho,
                                                     alpha_f, mu_x, q, b_x, b_y):
    # sigma at most 1/(l_yx + l_yy) keeps the VR alpha = l_yx + l_yy admissible
    sigma = sigma_f / (s.l_yx + s.l_yy)
    plain = SapdParams(tau, sigma, theta, rho, alpha_f / sigma, mu_x, n_inner=5)
    vr = VrParams(tau, sigma, b=1, b_x=b_x, b_y=b_y, q=q, n_inner=5, mu_x=mu_x)
    for got, want in ((certify(plain, s, c),
                       build_lmi(tau, sigma, theta, rho, alpha_f / sigma, mu_x, s, c)),
                      (certify(vr, s, c), build_vr_lmi(tau, sigma, q, b_x, b_y, mu_x, s, c))):
        assert (got.min_eigenvalue.hex(), got.feasible) == (
            want.min_eigenvalue.hex(), want.feasible)


@pytest.mark.parametrize("build", [
    # 1/tau overflows; tau rho underflows to 0 as well; (theta/rho) l_yx
    # overflows off the diagonal; both steps overflow
    pytest.param(lambda: build_lmi(1e-320, 1.0, 0.5, 0.5, 0.1, 1.0, CANON_S, CANON_C),
                 id="tau-1e-320"),
    pytest.param(lambda: build_lmi(5e-324, 1.0, 0.3, 0.3, 0.1, 1.0, CANON_S, CANON_C),
                 id="tau-rho-underflow"),
    pytest.param(lambda: build_lmi(0.1, 0.1, 1.0, 1e-300, 0.0, 1.0,
                                   SmoothnessConstants(1, 1, 1e300, 1), CANON_C),
                 id="off-diagonal-inf"),
    pytest.param(lambda: build_vr_lmi(1e-320, 1e-320, 3, 10, 10, 1.0, CANON_S, CANON_C),
                 id="vr-1e-320")])
def test_a_matrix_beyond_the_floats_is_not_certified(build):
    # eigvalsh once raised LinAlgError on the inf entry
    cert = build()
    assert (cert.min_eigenvalue, cert.feasible) == (-math.inf, False)


@pytest.mark.filterwarnings("ignore:large batch b below")
@pytest.mark.parametrize("rule,err", [
    # each once ended in another exception: ZeroDivisionError, OverflowError,
    # a bare RuntimeError, the ConfigurationError "beta must lie in (0, 1]",
    # a ValueError from the ceiling of nan, or, for the nan floor, a schedule
    # that left the floor out
    pytest.param(lambda: theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), 1e-300, 1.0),
                 "stage count T at eps = 1e-300 is not finite", id="T"),
    pytest.param(lambda: theorem1_schedule(SmoothnessConstants(1e300, 1, 1, 1), CANON_C,
                                           NoiseLevels(0, 0), 0.05, 1.0),
                 "momentum lower bound theta_bar_1 is not finite", id="bounds"),
    pytest.param(lambda: theorem1_schedule(CANON_S, ConvexityModuli(1e-300, 1e300),
                                           NoiseLevels(0, 0), 0.05, 1.0),
                 "beta at gamma = 1e-300, mu_y = 1e+300 is not positive", id="beta"),
    pytest.param(lambda: theorem1_schedule(SmoothnessConstants(1, 1, 1, 1e-200), CANON_C,
                                           NoiseLevels(0, 0), 0.05, 1.0),
                 "momentum lower bound theta_bar_2 is not finite", id="bound-2"),
    pytest.param(lambda: theorem1_schedule(CANON_S, CANON_C, NoiseLevels(0, 1e6), 1e-9, 1.0),
                 "momentum theta, the largest lower bound, is not below 1", id="theta-1"),
    pytest.param(lambda: theorem1_schedule(CANON_S, CANON_C, NoiseLevels(1e-200, 0), 0.05,
                                           1.0),
                 "noise floor theta_dbar_1 at eps = 0.05 is not finite", id="floors"),
    pytest.param(lambda: theorem1_schedule(SmoothnessConstants(1, 1, 1, 0),
                                           ConvexityModuli(1e-10, 1e10),
                                           NoiseLevels(0, 1.2e154), 1e150, 1.0),
                 "noise floor theta_dbar_2 at eps = 1e+150 is not finite", id="floor-nan"),
    pytest.param(lambda: theorem1_schedule(CANON_S, ConvexityModuli(1, 1e-12),
                                           NoiseLevels(0, 0), 0.05, 1.0),
                 "the closed-form schedule does not certify (min eigenvalue -8.890e-05)",
                 id="certificate"),
    pytest.param(lambda: step_rule(0.5, 1.0, CANON_S, CANON_C, sigma=1e-320),
                 "alpha = 1/sigma - sqrt(theta) l_yy at sigma = 9.99989e-321 is not finite",
                 id="alpha"),
    pytest.param(lambda: vr_schedule(SmoothnessConstants(1e300, 1, 1, 1), CANON_C,
                                     NoiseLevels(0, 0), 0.05, 1.0, 10, 10, 10),
                 "VR step sizes tau and sigma are not both positive", id="vr-steps"),
    pytest.param(lambda: vr_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), 0.05, 1.0,
                                     1, 10, 10, zeta=1e308),
                 "VR inner count N is not finite", id="vr-N"),
    pytest.param(lambda: vr_schedule(CANON_S, CANON_C, NoiseLevels(1e200, 0), 0.05, 1.0,
                                     10, 10, 10),
                 "large batch b at eps = 0.05 is not finite", id="vr-b"),
    pytest.param(lambda: vr_schedule(CANON_S, ConvexityModuli(1e10, 1), NoiseLevels(0, 0),
                                     0.05, 1e300, 1, 10, 10),
                 "VR stage count T at eps = 0.05 is not finite", id="vr-T"),
    pytest.param(lambda: vr_schedule(CANON_S, CANON_C, NoiseLevels(0, 0), 0.05, 1.0,
                                     10**24, 10, 10),
                 "the VR schedule does not certify (min eigenvalue -7.321e-01)",
                 id="vr-certificate")])
def test_a_rule_with_no_schedule_names_the_quantity(rule, err):
    with pytest.raises(InfeasibleScheduleError) as info:
        rule()
    assert str(info.value) == f"{err}: degenerate constants"


def test_smoothing_mu_hat_underflow_names_eps():
    # it once reached the strongly concave rule with mu_y = 0, which said
    # "mu_y = 0: merely-concave problems take the smoothing path"
    toy = datasets.make_bilinear_box_toy()
    with pytest.raises(InfeasibleScheduleError, match=r"^smoothing mu_hat at eps = 1e-200 "
                       "is not a positive finite float: degenerate constants$"):
        _smoothing_plan(toy.problem, 1e-200, np.zeros(toy.problem.m))


def test_smoothing_mu_hat_overflow_names_eps():
    # eps^2 overflows with l_yy = 0: both once ended in a bare OverflowError
    err = r"^smoothing mu_hat at eps = {} is not a positive finite float: degenerate constants$"
    toy = datasets.make_bilinear_box_toy()
    with pytest.raises(InfeasibleScheduleError, match=err.format(r"1e\+200")):
        smooth_then_solve(toy.problem, 1e200, np.ones(1), np.zeros(1),
                          np.random.default_rng(0))
    with pytest.raises(InfeasibleScheduleError, match=err.format(r"1e\+160")):
        smoothing_mu_hat(1e160, 1.0, 2.0, 0.0, 1.0)


def wide(zero=False):
    """10^e for e uniform in [-300, 300], and 0 where zero is set."""
    values = scales(-300, 300)
    return st.one_of(st.just(0.0), values) if zero else values


def schedule_or_refusal(rule):
    """rule(), or None where it refuses."""
    try:
        return rule()
    except (InfeasibleScheduleError, ConfigurationError):
        return None


def assert_schedule(params, t_outer, smoothness, convexity):
    assert math.isfinite(params.tau) and params.tau > 0
    assert math.isfinite(params.sigma) and params.sigma > 0
    assert params.n_inner >= 1 and t_outer >= 1
    if isinstance(params, SapdParams):
        assert 0 <= params.theta < 1
    assert certify(params, smoothness, convexity).feasible


@pytest.mark.filterwarnings("ignore:large batch b below")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=st.builds(SmoothnessConstants, wide(True), wide(), wide(), wide(True)),
       c=st.builds(ConvexityModuli, wide(), wide()),
       noise=st.builds(NoiseLevels, wide(True), wide(True)), eps=wide(),
       gap0=wide(True), q=st.integers(1, 20), b_x=st.integers(1, 20),
       b_y=st.integers(1, 20), toy_c=wide(), toy_gamma=wide())
# few wide draws give a schedule: these give one for each rule
@example(s=CANON_S, c=CANON_C, noise=NoiseLevels(0.5, 0.5), eps=0.05, gap0=1.0, q=10, b_x=10,
         b_y=10, toy_c=10.0, toy_gamma=1.0)
@example(s=SmoothnessConstants(0.0, 1.0, 1.0, 0.0), c=CANON_C, noise=NoiseLevels(0.0, 0.0),
         eps=0.05, gap0=0.0, q=1, b_x=1, b_y=1, toy_c=1.0, toy_gamma=1.0)
def test_a_rule_returns_a_schedule_or_refuses(s, c, noise, eps, gap0, q, b_x, b_y,
                                              toy_c, toy_gamma):
    # any other exception is a rule that neither gives a schedule nor says
    # why; the smoothing rule once ended in OverflowError for eps^2
    sched = schedule_or_refusal(lambda: theorem1_schedule(s, c, noise, eps, gap0))
    if sched is not None:
        assert_schedule(sched, sched.t_outer, s, c)
    vr = schedule_or_refusal(lambda: vr_schedule(s, c, noise, eps, gap0, q, b_x, b_y))
    if vr is not None:
        params, cert, t_outer = vr
        assert cert.feasible
        assert_schedule(params, t_outer, s, c)
    toy = datasets.make_bilinear_box_toy(toy_c, toy_gamma)
    plan = schedule_or_refusal(lambda: _smoothing_plan(toy.problem, eps, np.zeros(1)))
    if plan is not None:
        smoothed, cfg, mu_hat = plan
        assert 0 < mu_hat < math.inf
        assert_schedule(cfg.schedule, cfg.t_outer, smoothed.smoothness, smoothed.convexity)


# The oracle complexities of the abstract, as exponents of the schedules
# alone: a schedule fixes T stages of N iterations, and its draws method
# counts the single-sample draws of one stage, so T * draws needs no run.
EPS_LADDER = [0.2, 0.1, 0.05, 0.025, 0.0125]


def _slope(xs, counts):
    """Least-squares slope of log(count) against log(x)."""
    return float(np.polyfit(np.log(xs), np.log([float(c) for c in counts]), 1)[0])


def _theorem1_draws(s, c, noise, eps):
    sched = theorem1_schedule(s, c, noise, eps, 1.0)
    return sched.t_outer * sched.draws(sched.n_inner, 1)


@settings(max_examples=60, deadline=None)
@given(l=st.floats(0.5, 4.0), gamma_f=st.floats(0.1, 1.0), mu_f=st.floats(0.05, 1.0),
       delta=st.floats(0.5, 10.0))
def test_theorem1_draws_scale_as_kappa_over_eps_to_the_fourth(l, gamma_f, mu_f, delta):
    # O(L kappa_y eps^-4): over the eps ladder at each mu_y of a halving
    # ladder, and over the mu_y ladder (kappa_y = l/mu_y) at each eps
    s, noise = SmoothnessConstants(l, l, l, l), NoiseLevels(delta, delta)
    mus = [l * mu_f / 2**k for k in range(5)]
    counts = [[_theorem1_draws(s, ConvexityModuli(l * gamma_f, mu), noise, eps)
               for eps in EPS_LADDER] for mu in mus]
    for row in counts:
        assert abs(_slope(EPS_LADDER, row) + 4.0) <= 0.1
    for column in zip(*counts):
        assert _slope([l / mu for mu in mus], column) <= 1.1


@settings(max_examples=60, deadline=None)
@given(l=st.floats(1.0, 4.0), gamma=st.floats(0.25, 1.0), delta=st.floats(0.25, 1.0),
       d_y=st.floats(0.5, 2.0))
def test_smoothing_path_draws_scale_as_eps_to_the_sixth(l, gamma, delta, d_y):
    # O(L^3 eps^-6) for merely concave problems, counted on the plan that
    # smooth_then_solve runs.  Its momentum bound 1/(1 + t) has
    # t = eps^4/(2211840 (gamma d_y delta)^2), 2.8e-15 at eps = 0.0125 and
    # gamma d_y delta = 2: as t nears the spacing of floats at 1 the
    # rounding of 1 + t swamps the count, which this domain stays clear of
    p = ProblemSpec(n=1, m=1, grad_x=lambda x, y: l * y, grad_y=lambda x, y: l * x,
                    prox_f=prox_zero, prox_g=prox_zero,
                    smoothness=SmoothnessConstants(l, l, l, 0.0),
                    convexity=ConvexityModuli(gamma, 0.0),
                    noise=NoiseLevels(delta, delta), d_y=d_y)
    counts = []
    for eps in EPS_LADDER:
        _, cfg, _ = _smoothing_plan(p, eps, np.zeros(1))
        counts.append(cfg.t_outer * cfg.schedule.draws(cfg.schedule.n_inner, 1))
    assert abs(_slope(EPS_LADDER, counts) + 6.0) <= 0.1


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_a_square_of_eps_keeps_its_bits_or_is_inf(eps):
    try:
        want = eps**2
    except OverflowError:
        want = math.inf
    assert _square(eps).hex() == want.hex()


def test_a_large_eps_gives_the_limits_of_the_counts():
    # eps^2 = inf, where Python's epsilon**2 raises OverflowError
    noisy = NoiseLevels(0.5, 0.5)
    assert theorem1_schedule(CANON_S, CANON_C, noisy, 1e200, 1.0).t_outer == 1
    assert theta_noise_floor(CANON_C, noisy, 1e200) == (0.0, 0.0)
    assert vr_batch_floor(noisy, CANON_C, 1e200) == 1
    with pytest.warns(UserWarning, match="large batch b below"):
        _, _, t_outer = vr_schedule(CANON_S, CANON_C, noisy, 1e200, 1.0, 10, 10, 10)
    assert t_outer == 1


def test_a_count_of_inf_over_inf_is_refused_as_not_finite():
    # max{144 delta_x^2, ...} = inf over eps^2 = inf is nan, where
    # math.ceil raises ValueError
    with pytest.raises(InfeasibleScheduleError,
                       match=r"^large batch b at eps = 1e\+200 is not finite: "):
        vr_batch_floor(NoiseLevels(1e154, 0.0), CANON_C, 1e200)
