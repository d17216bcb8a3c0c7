"""The inner solvers against frozen reference copies of their loops.

Every field of the run result, the recorded iterates and the VR debug trace
must match the reference bit for bit: the lean loops may only drop work
whose result is never read, never reorder arithmetic or rng draws.
"""

from dataclasses import replace

import numpy as np
import pytest

from reference_loops import reference_sapd_run, reference_vr_sapd_run
from sapdplus import datasets
from sapdplus.errors import DivergenceError
from sapdplus.outer import smooth_dual
from sapdplus.params import theorem1_schedule
from sapdplus.problem import (NoiseLevels, shifted_finite_sum, shifted_subproblem,
                              with_gaussian_noise)
from sapdplus.sapd import SapdParams, sapd_run
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
    assert (got.trace is None) == (ref.trace is None)
    for rec_got, rec_ref in zip(got.trace or (), ref.trace or ()):
        if isinstance(rec_ref, dict):
            assert rec_got.keys() == rec_ref.keys()
            for key, val in rec_ref.items():
                if key == "points":
                    assert [_bits(v) for v in rec_got[key]] == [_bits(v) for v in val]
                elif isinstance(val, np.ndarray):
                    assert _bits(rec_got[key]) == _bits(val), key
                else:
                    assert rec_got[key] == val, key
        else:
            assert [_bits(v) for v in rec_got] == [_bits(v) for v in rec_ref]
    assert len(got.trace or ()) == len(ref.trace or ())


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
        got = sapd_run(sub, params, x0, y0, np.random.default_rng(17),
                       step_tol=step_tol, record_iterates=record)
        ref = reference_sapd_run(sub, params, x0, y0, np.random.default_rng(17),
                                 step_tol=step_tol, record_iterates=record)
        assert_same_run(got, ref)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("record", [False, True])
    def test_deterministic_early_exit(self, case, record):
        sub, params, x0, y0 = CASES[case](0.0)
        params = replace(params, n_inner=5000)
        got = sapd_run(sub, params, x0, y0, None, step_tol=1e-8,
                       record_iterates=record)
        ref = reference_sapd_run(sub, params, x0, y0, None, step_tol=1e-8,
                                 record_iterates=record)
        assert got.iterations < params.n_inner  # the early exit was taken
        assert_same_run(got, ref)

    def test_divergence_trips_at_the_same_iteration(self):
        qs = datasets.make_scsc_quadratic([[-1.0]], [[1.0]], mu_y=1.0, gamma=1.0)
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
    qfs = datasets.make_quadratic_finite_sum(20, 4, 3, 1.0, 1.0, rng, spread=0.4)
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


@pytest.mark.parametrize("case", sorted(VR_CASES))
@pytest.mark.parametrize("debug_record", [False, True])
def test_vr_sapd_run_matches_reference(case, debug_record):
    fs, sub, params, x0, y0 = VR_CASES[case]()
    got = vr_sapd_run(fs, sub, params, x0, y0, np.random.default_rng(23),
                      debug_record=debug_record)
    ref = reference_vr_sapd_run(fs, sub, params, x0, y0, np.random.default_rng(23),
                                debug_record=debug_record)
    assert_same_run(got, ref)
