import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fixtures import make_quadratic_finite_sum, shifted_saddle
from sapdplus import datasets
from sapdplus.errors import ConfigurationError, DivergenceError
from sapdplus.evaluation import moreau_stationarity
from sapdplus.outer import (FixedT, OuterConfig, StationarityTarget,
                            sapd_plus_run, smooth_dual, smooth_then_solve,
                            smoothing_mu_hat)
from sapdplus.params import theorem1_schedule
from sapdplus.problem import NoiseLevels
from sapdplus.sapd import SapdParams
from sapdplus.vr import VrParams


def wcsc_setup(seed=0, n=8, m=5, mu_y=0.6):
    rng = np.random.default_rng(seed)
    qs = datasets.make_quadratic_saddle(n, m, 1.0, mu_y, rng)
    sched = theorem1_schedule(qs.problem.smoothness, qs.problem.convexity,
                              NoiseLevels(0, 0), 1e-2, 1.0)
    return qs, sched, rng


class TestSapdPlusRun:
    def test_zero_stages_returns_init(self):
        qs, sched, rng = wcsc_setup()
        cfg = OuterConfig(t_outer=0, schedule=sched.sapd_params())
        x0, y0 = rng.standard_normal(8), rng.standard_normal(5)
        res = sapd_plus_run(qs.problem, cfg, x0, y0, rng)
        np.testing.assert_array_equal(res.x, x0)
        np.testing.assert_array_equal(res.y, y0)
        assert res.oracle_calls == 0

    def test_reaches_stationarity_on_quadratic(self):
        qs, sched, rng = wcsc_setup(seed=1)
        cfg = OuterConfig(t_outer=sched.t_outer, schedule=sched.sapd_params(),
                          stop=StationarityTarget(epsilon=1e-2, check_every=5))
        res = sapd_plus_run(qs.problem, cfg, rng.standard_normal(8),
                            rng.standard_normal(5), rng)
        est = moreau_stationarity(qs.problem, res.x, tol=1e-10)
        assert est.value <= 1e-2

    def test_stage_center_is_moreau_prox(self):
        # the exact saddle of each stage equals prox_{lam phi}(center)
        qs, sched, rng = wcsc_setup(seed=2)
        lam = 1.0 / (qs.gamma + sched.mu_x)
        for _ in range(5):
            center = rng.standard_normal(8)
            xs, _ = shifted_saddle(qs, center, sched.mu_x)
            np.testing.assert_allclose(xs, qs.moreau_prox(center, lam), atol=1e-8)

    def test_oracle_call_bookkeeping(self):
        qs, sched, rng = wcsc_setup(seed=3)
        params = sched.sapd_params()
        cfg = OuterConfig(t_outer=7, schedule=params)
        res = sapd_plus_run(qs.problem, cfg, np.zeros(8), np.zeros(5), rng)
        per_stage = 2 * params.n_inner + 1
        assert res.oracle_calls == 7 * per_stage
        assert [r.oracle_calls for r in res.stages] == [
            per_stage * t for t in range(8)]

    @pytest.mark.parametrize("vr", [False, True], ids=["plain", "vr"])
    def test_oracle_calls_count_every_draw(self, vr):
        # the reported calls equal the single-sample draws the oracles made:
        # oracle_batch per plain sgrad call, the batch size per VR batch call
        ds = datasets.synthetic_logistic_dataset(50, 4, np.random.default_rng(1))
        inst = datasets.build_dro(ds, sgrad_batch=5)
        drawn = [0]

        def counted(fn, rows):
            def wrapper(*args):
                drawn[0] += rows(args)
                return fn(*args)
            return wrapper

        p = replace(inst.problem,
                    sgrad_x=counted(inst.problem.sgrad_x, lambda a: 5),
                    sgrad_y=counted(inst.problem.sgrad_y, lambda a: 5))
        fs = replace(inst.finite_sum,
                     batch_grad_x=counted(inst.finite_sum.batch_grad_x, lambda a: len(a[0])),
                     batch_grad_y=counted(inst.finite_sum.batch_grad_y, lambda a: len(a[0])))
        if vr:
            params = VrParams(tau=0.05, sigma=0.05, b=20, b_x=3, b_y=2, q=4,
                              n_inner=11, mu_x=p.convexity.gamma)
        else:
            params = SapdParams(tau=0.05, sigma=0.05, theta=0.5, rho=0.5, alpha=0.0,
                                mu_x=p.convexity.gamma, n_inner=11)
        cfg = OuterConfig(t_outer=3, schedule=params)
        res = sapd_plus_run(p, cfg, np.zeros(4), np.full(50, 0.02),
                            np.random.default_rng(2), fs=fs)
        assert res.oracle_calls == drawn[0] > 0

    def test_vr_flag_requires_finite_sum(self):
        # a VrParams schedule selects the VR inner solver, which needs fs
        qs, sched, rng = wcsc_setup(seed=4)
        vrp = VrParams(tau=0.01, sigma=0.01, b=4, b_x=2, b_y=2, q=2,
                       n_inner=4, mu_x=1.0)
        cfg = OuterConfig(t_outer=1, schedule=vrp)
        with pytest.raises(ConfigurationError, match="needs a FiniteSumSpec"):
            sapd_plus_run(qs.problem, cfg, np.zeros(8), np.zeros(5), rng)

    def test_vr_keyword_must_agree_with_the_schedule(self):
        # vr is no field: the schedule's type selects the inner solver, and
        # the keyword, kept for callers that pass it, may only agree
        qs, sched, _ = wcsc_setup(seed=4)
        vrp = VrParams(tau=0.01, sigma=0.01, b=4, b_x=2, b_y=2, q=2,
                       n_inner=4, mu_x=1.0)
        assert "vr" not in {f.name for f in fields(OuterConfig)}
        assert OuterConfig(t_outer=1, schedule=vrp, vr=True).schedule is vrp
        with pytest.raises(ConfigurationError, match="vr=False disagrees with a VrParams"):
            OuterConfig(t_outer=1, schedule=vrp, vr=False)
        with pytest.raises(ConfigurationError, match="vr=True disagrees with a SapdParams"):
            OuterConfig(t_outer=1, schedule=sched.sapd_params(), vr=True)
        with pytest.raises(ConfigurationError, match="schedule must be a SapdParams"):
            OuterConfig(t_outer=1, schedule=sched.certificate)

    def test_vr_outer_loop_runs(self):
        rng = np.random.default_rng(5)
        qfs = make_quadratic_finite_sum(16, 4, 3, 1.0, 1.0, rng, spread=0.2)
        vrp = VrParams(tau=0.05, sigma=0.05, b=16, b_x=4, b_y=4, q=4,
                       n_inner=30, mu_x=1.0)
        cfg = OuterConfig(t_outer=25, schedule=vrp)
        res = sapd_plus_run(qfs.base.problem, cfg, rng.standard_normal(4),
                            rng.standard_normal(3), rng, fs=qfs.spec)
        est = moreau_stationarity(qfs.base.problem, res.x, tol=1e-9)
        start = moreau_stationarity(qfs.base.problem, res.stages[0].x, tol=1e-9)
        assert est.value < 0.5 * start.value

    def test_cadences_must_be_positive(self):
        _, sched, _ = wcsc_setup()
        with pytest.raises(ConfigurationError, match="check_every"):
            StationarityTarget(epsilon=0.1, check_every=0)
        with pytest.raises(ConfigurationError, match="record_every"):
            OuterConfig(t_outer=3, schedule=sched.sapd_params(), record_every=0)

    def test_divergence_carries_stage(self):
        qs, _, rng = wcsc_setup(seed=6)
        bad = SapdParams(tau=80.0, sigma=80.0, theta=1.0, rho=1.0, alpha=0.0,
                         mu_x=1.0, n_inner=400)
        cfg = OuterConfig(t_outer=3, schedule=bad)
        with pytest.raises(DivergenceError) as err:
            sapd_plus_run(qs.problem, cfg, np.ones(8) * 5, np.ones(5), rng)
        assert err.value.stage is not None


class TestSmoothing:
    def test_mu_hat_formula_lyy_zero(self):
        # eps = 0.1, gamma = 1, d_y = 2, l_yy = 0: only the first term
        got = smoothing_mu_hat(0.1, 1.0, 2.0, 0.0, 1.0)
        assert abs(got - 0.01 / 96.0) < 1e-15

    def test_mu_hat_formula_general(self):
        got = smoothing_mu_hat(0.1, 1.0, 2.0, 0.5, 1.0)
        second = 0.5 * 0.1 / (2 * math.sqrt(6) * 2.0)
        assert abs(got - min(0.01 / 96.0, second)) < 1e-15

    def test_smooth_dual_constants(self):
        toy = datasets.make_bilinear_box_toy()
        sm = smooth_dual(toy.problem, 0.25, np.zeros(1))
        assert sm.convexity.mu_y == 0.25
        assert sm.smoothness.l_yy == 0.25
        # gradient shifted by -mu_hat (y - anchor)
        g0 = toy.problem.grad_y(np.array([0.3]), np.array([0.8]))
        g1 = sm.grad_y(np.array([0.3]), np.array([0.8]))
        np.testing.assert_allclose(g1, g0 - 0.25 * 0.8, atol=1e-15)

    def test_requires_dual_diameter(self):
        toy = datasets.make_bilinear_box_toy()
        p = toy.problem
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            smooth_then_solve(replace(p, d_y=None), 0.05, np.zeros(1),
                              np.zeros(1), np.random.default_rng(0))

    def test_rejects_strongly_concave(self):
        qs = datasets.make_quadratic_saddle(3, 2, 1.0, 1.0,
                                            np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            smooth_then_solve(qs.problem, 0.05, np.zeros(3), np.zeros(2),
                              np.random.default_rng(0))

    def test_bilinear_toy_well_posed_and_accurate(self):
        # the smoothing path by hand, with a manual schedule
        toy = datasets.make_bilinear_box_toy(c=1.0, gamma=1.0)
        eps = 0.05
        mu_hat = smoothing_mu_hat(eps, 1.0, 2.0, 0.0, 1.0)
        # certified theta = 1 schedule for the smoothed constants
        sched = SapdParams(tau=1.0 / 3.0, sigma=1.0 / (1.0 + 2 * mu_hat),
                           theta=1.0, rho=1.0, alpha=1.0 + mu_hat, mu_x=1.0,
                           n_inner=150)
        cfg = OuterConfig(t_outer=300, schedule=sched,
                          stop=StationarityTarget(epsilon=eps / (2 * math.sqrt(6)) / 2,
                                                  check_every=10))
        res = sapd_plus_run(smooth_dual(toy.problem, mu_hat, np.zeros(1)), cfg,
                            np.array([0.8]), np.array([0.0]), np.random.default_rng(1))
        est = moreau_stationarity(toy.problem, res.x, tol=1e-9)
        assert est.value <= eps
        assert abs(est.value - toy.moreau_grad_norm(res.x, est.lam)) < 1e-6

    def test_is_its_explicit_composition(self):
        # c = 10 and eps = 1, as in bilinear-wcmc, with y0 off zero so the
        # anchor shows; the one smoothing path is mu_hat from the closed-form
        # rule, the dual smoothed around y0, the closed-form schedule at
        # eps/(2 sqrt 6) with gap0 = 1 and its T, and that target checked
        # after every stage: stage 1 misses it, stage 2 meets it
        p, eps = datasets.make_bilinear_box_toy(c=10.0).problem, 1.0
        x0, y0 = np.array([8.0]), np.array([0.25])
        got, mu_hat = smooth_then_solve(p, eps, x0, y0, np.random.default_rng(0))

        s = p.smoothness
        assert mu_hat == smoothing_mu_hat(eps, p.convexity.gamma, p.d_y, s.l_yy, s.l_xy)
        smoothed = smooth_dual(p, mu_hat, y0)
        eps_inner = eps / (2.0 * math.sqrt(6.0))
        sched = theorem1_schedule(smoothed.smoothness, smoothed.convexity,
                                  smoothed.noise, eps_inner, 1.0)
        cfg = OuterConfig(t_outer=sched.t_outer, schedule=sched.sapd_params(),
                          stop=StationarityTarget(eps_inner, check_every=1))
        want = sapd_plus_run(smoothed, cfg, x0, y0, np.random.default_rng(0))

        def bits(res):
            return (res.x.tobytes(), res.y.tobytes(), res.stages_run, res.oracle_calls,
                    [(r.stage, r.oracle_calls, r.x.tobytes(), r.y.tobytes(),
                      r.stationarity) for r in res.stages])

        assert bits(got) == bits(want)
        assert [r.stage for r in got.stages] == [0, 1, 2]
        assert got.stages[1].stationarity > eps_inner >= got.stages[2].stationarity
