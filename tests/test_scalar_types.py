"""The hot path's 0-d float64 coefficients stay inside the array arithmetic.

A 0-d array spreads: the product of two 0-d arrays is an np.float64, not a
Python float, and a float32 operand is promoted to float64 (NEP 50).  The
solver binds its coefficients as 0-d arrays (see the `sapd` module
docstring), so these tests pin what must not catch it: the scalars a
caller reads from the results, the schedule fields the CLI writes as JSON,
and the step a prox map receives.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from sapdplus import datasets, outer
from sapdplus.evaluation import moreau_stationarity
from sapdplus.outer import (OuterConfig, StationarityTarget, sapd_plus_run,
                            smooth_then_solve)
from sapdplus.params import theorem1_schedule, vr_schedule
from sapdplus.problem import NoiseLevels, with_gaussian_noise
from sapdplus.sapd import SapdParams, sapd_run
from sapdplus.vr import VrParams, vr_sapd_run


def test_zero_d_arrays_spread():
    half, two = np.array(0.5), np.array(2.0)
    assert type(half * two) is np.float64
    single = np.ones(3, dtype=np.float32)
    assert (half * single).dtype == np.float64
    assert (0.5 * single).dtype == np.float32


def recording(p, steps):
    """p with prox maps that log the type of every step they receive."""
    prox_f, prox_g = p.prox_f, p.prox_g

    def rec_f(v, step):
        steps.append(type(step))
        return prox_f(v, step)

    def rec_g(v, step):
        steps.append(type(step))
        return prox_g(v, step)

    return replace(p, prox_f=rec_f, prox_g=rec_g)


def quadratic(delta=0.1):
    qs = datasets.make_quadratic_saddle(4, 3, 1.0, 0.5, np.random.default_rng(3))
    return with_gaussian_noise(qs.problem, delta, delta)


def dro():
    ds = datasets.synthetic_logistic_dataset(40, 5, np.random.default_rng(4))
    return datasets.build_dro(ds, alpha=10.0, eta1=1e-3, sgrad_batch=2)


PLAIN = SapdParams(tau=0.05, sigma=0.05, theta=0.5, rho=0.9, alpha=0.0, mu_x=1.0,
                   n_inner=20)
VR = VrParams(tau=0.05, sigma=0.05, b=8, b_x=2, b_y=2, q=4, n_inner=20, mu_x=0.02)


def assert_outer_types(res):
    assert type(res.oracle_calls) is int
    assert type(res.stages_run) is int
    for record in res.stages:
        assert type(record.oracle_calls) is int
        assert record.stationarity is None or type(record.stationarity) is float


@pytest.mark.parametrize("step_tol", [0.0, 1e-3])
def test_plain_run_scalars_and_prox_steps(step_tol):
    steps = []
    p = recording(quadratic(), steps)
    res = sapd_run(p, PLAIN, np.ones(4), np.zeros(3), np.random.default_rng(1),
                   step_tol=step_tol)
    assert type(res.last_step_norm) is float
    assert type(res.iterations) is int
    assert [type(c) for c in PLAIN.oracle_calls(res.iterations)] == [int, int]
    assert res.x_avg.dtype == np.float64 and res.y_avg.dtype == np.float64
    assert steps and set(steps) == {float}


def test_vr_run_scalars_and_prox_steps():
    inst, steps = dro(), []
    p = recording(inst.problem, steps)
    res = vr_sapd_run(inst.finite_sum, p, VR, np.ones(5), np.full(40, 1 / 40),
                      np.random.default_rng(2))
    assert type(res.last_step_norm) is float
    assert steps and set(steps) == {float}


@pytest.mark.parametrize("vr", [False, True])
def test_outer_run_scalars(vr):
    inst, steps = dro(), []
    p = recording(inst.problem, steps)
    cfg = OuterConfig(t_outer=3, schedule=VR if vr else PLAIN,
                      stop=StationarityTarget(epsilon=1e-9))
    res = sapd_plus_run(p, cfg, np.ones(5), np.full(40, 1 / 40),
                        np.random.default_rng(3), fs=inst.finite_sum)
    assert_outer_types(res)
    assert type(res.stages[-1].stationarity) is float
    assert steps and set(steps) == {float}


@pytest.mark.parametrize("mu_y", [0.5, 0.0])
def test_stationarity_estimate_scalars(mu_y):
    # mu_y > 0 takes the accelerated certificate path, mu_y = 0 the nested one
    steps = []
    if mu_y:
        p = quadratic(0.0)
    else:
        p = datasets.make_bilinear_box_toy(c=2.0).problem
    est = moreau_stationarity(recording(p, steps), np.ones(p.n), max_calls=3)
    assert type(est.value) is float and type(est.lam) is float
    assert type(est.inner_iterations) is int
    assert steps and set(steps) == {float}


def test_smoothing_path_scalars():
    steps = []
    toy = recording(datasets.make_bilinear_box_toy(c=2.0).problem, steps)
    res, mu_hat = smooth_then_solve(toy, 4.0, np.array([3.0]), np.zeros(1),
                                    np.random.default_rng(5))
    assert type(mu_hat) is float
    assert_outer_types(res)
    assert steps and set(steps) == {float}


def schedules():
    p = quadratic()
    s, c = p.smoothness, p.convexity
    plain = theorem1_schedule(s, c, p.noise, 0.5, 1.0).sapd_params()
    vr, _, _ = vr_schedule(s, c, NoiseLevels(0.0, 0.0), 0.5, 1.0, q=4, b_x=1, b_y=1)
    toy = datasets.make_bilinear_box_toy(c=2.0).problem
    smoothed = outer._smoothing_plan(toy, 4.0, np.zeros(1))[1].schedule
    return {"plain": plain, "vr": vr, "smoothing-plan": smoothed}


@pytest.mark.parametrize("name", ["plain", "vr", "smoothing-plan"])
def test_schedule_fields_stay_json_scalars(name):
    fields = asdict(schedules()[name])
    # json.dumps also takes an np.float64, a float subclass: check types too
    assert all(type(v) in (float, int) for v in fields.values()), fields
    assert json.loads(json.dumps(fields)) == fields
