from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_quadratic_finite_sum
from sapdplus import datasets
from sapdplus.problem import shifted_subproblem
from sapdplus.sapd import SapdParams, sapd_run
from sapdplus.vr import VrParams, _spider_gradient, vr_sapd_run


@pytest.fixture
def shifted_setup():
    rng = np.random.default_rng(5)
    qfs = make_quadratic_finite_sum(20, 4, 3, 1.0, 1.0, rng, spread=0.4)
    center = rng.standard_normal(4)
    sub = shifted_subproblem(qfs.base.problem, center, 1.0)
    x0, y0 = rng.standard_normal(4), rng.standard_normal(3)
    return qfs, sub, qfs.spec, x0, y0


class TestVrParams:
    def test_theta_fixed(self):
        with pytest.raises(Exception):
            VrParams(tau=0.1, sigma=0.1, b=4, b_x=2, b_y=2, q=2, n_inner=5,
                     mu_x=1.0, theta=0.9)

    def test_small_large_batch_warning(self):
        with pytest.warns(UserWarning, match="large batch b below") as record:
            VrParams(tau=0.1, sigma=0.1, b=1, b_x=4, b_y=4, q=2, n_inner=5,
                     mu_x=1.0)
        # it names the line that built the VrParams, not dataclass's __init__
        assert [w.filename for w in record] == [__file__]


class TestVrRun:
    def test_identical_components_match_plain_sapd(self):
        # all components equal: every batch is the exact gradient, so the run
        # must follow deterministic theta=1 SAPD step for step
        rng = np.random.default_rng(5)
        qfs0 = make_quadratic_finite_sum(20, 4, 3, 1.0, 1.0, rng, spread=0.0)
        center = rng.standard_normal(4)
        sub = shifted_subproblem(qfs0.base.problem, center, 1.0)
        x0, y0 = rng.standard_normal(4), rng.standard_normal(3)
        vrp = VrParams(tau=0.05, sigma=0.05, b=20, b_x=3, b_y=3, q=4,
                       n_inner=25, mu_x=1.0)
        res_vr = vr_sapd_run(qfs0.spec, sub, vrp, x0, y0, np.random.default_rng(9))
        sp = SapdParams(tau=0.05, sigma=0.05, theta=1.0, rho=1.0, alpha=0.0,
                        mu_x=1.0, n_inner=25)
        res_sp = sapd_run(sub, sp, x0, y0, rng=None)
        np.testing.assert_allclose(res_vr.x_last, res_sp.x_last, atol=1e-12)
        np.testing.assert_allclose(res_vr.y_last, res_sp.y_last, atol=1e-12)
        np.testing.assert_allclose(res_vr.x_avg, res_sp.x_avg, atol=1e-12)

    def test_recursion_identity_bitwise(self, shifted_setup):
        # log every batch gradient, grad_h and prox call of a run, rebuild
        # u, v = u + grad_h(x) and w by the recursion from the logged
        # outputs, and require the prox arguments x - tau v and y + sigma s
        # bit for bit.  The point arguments are views of the solver's
        # reused arrays, so the log keeps copies of them (and of the
        # outputs); the batch stays the object the solver passed.
        _, sub, fs, x0, y0 = shifted_setup
        vrp = VrParams(tau=0.03, sigma=0.03, b=10, b_x=3, b_y=2, q=5,
                       n_inner=17, mu_x=1.0)
        log = []

        def snapshot(arg):
            return arg.copy() if isinstance(arg, np.ndarray) and arg.dtype == float else arg

        def logged(name, fn):
            def call(*args):
                out = fn(*args)
                log.append((name, tuple(snapshot(a) for a in args), out.copy()))
                return out
            return call

        fs = replace(fs, **{name: logged(name, getattr(fs, name))
                            for name in ("batch_grad_x", "batch_grad_y")})
        p = replace(sub, **{name: logged(name, getattr(sub, name))
                            for name in ("grad_h", "prox_f", "prox_g")})
        res = vr_sapd_run(fs, p, vrp, x0, y0, np.random.default_rng(2))
        calls = iter(log)

        def estimate(name, k, prev, at, at_prev):
            """Refresh at k % q == 0, else prev + batch(at) - batch(at_prev)."""
            first = next(calls)
            assert first[0] == name and len(first[1][0]) == (
                vrp.b if k % vrp.q == 0 else (vrp.b_x if name[-1] == "x" else vrp.b_y))
            assert [a.tobytes() for a in first[1][1:]] == [a.tobytes() for a in at]
            if k % vrp.q == 0:
                return first[2]
            second = next(calls)
            assert second[0] == name and second[1][0] is first[1][0]
            assert [a.tobytes() for a in second[1][1:]] == [a.tobytes() for a in at_prev]
            return prev + (first[2] - second[2])

        def prox(name, arg, step):
            call = next(calls)
            assert call[0] == name and call[1][1] == step
            assert call[1][0].tobytes() == arg.tobytes()
            return call[2]

        def grad_h(x):
            call = next(calls)
            assert call[0] == "grad_h" and call[1][0].tobytes() == x.tobytes()
            return call[2]

        x, y, x_prev, u = x0, y0, None, None
        w = s = estimate("batch_grad_y", 0, None, (x0, y0), None)
        for k in range(vrp.n_inner):
            y_new = prox("prox_g", y + vrp.sigma * s, vrp.sigma)
            u = estimate("batch_grad_x", k, u, (x, y_new), (x_prev, y))
            v = u + grad_h(x)
            x_new = prox("prox_f", x - vrp.tau * v, vrp.tau)
            w_new = estimate("batch_grad_y", k + 1, w, (x_new, y_new), (x, y))
            s = (1.0 + vrp.theta) * w_new - vrp.theta * w
            w, x_prev, x, y = w_new, x, x_new, y_new
        assert next(calls, None) is None
        assert (res.x_last.tobytes(), res.y_last.tobytes()) == (x.tobytes(), y.tobytes())

    def test_oracle_sample_accounting(self, shifted_setup):
        # count the component rows the run's batch gradients evaluate
        _, sub, sub_fs, x0, y0 = shifted_setup
        rows = {}

        def counted(axis, batch_grad):
            def call(batch, x, y):
                rows[axis] += len(batch)
                return batch_grad(batch, x, y)
            return call

        fs = replace(sub_fs, batch_grad_x=counted("x", sub_fs.batch_grad_x),
                     batch_grad_y=counted("y", sub_fs.batch_grad_y))
        for n, q, b, bx, by in [
            (17, 5, 10, 3, 2),
            (3, 5, 10, 3, 2),  # N < q: one x-refresh, no y-refresh
            (15, 5, 10, 3, 2),  # N a multiple of q: the last y-step refreshes
            (7, 1, 4, 2, 3),  # q = 1: refreshes only
            (1, 3, 6, 6, 1),
        ]:
            rows.update(x=0, y=0)
            vrp = VrParams(tau=0.03, sigma=0.03, b=b, b_x=bx, b_y=by, q=q,
                           n_inner=n, mu_x=1.0)
            res = vr_sapd_run(fs, sub, vrp, x0, y0, np.random.default_rng(2))
            assert res.iterations == n
            assert vrp.oracle_calls(n) == (rows["x"], rows["y"]), vrp
            # in draws already: the problem's oracle_batch does not scale them
            assert vrp.draws(n, 7) == rows["x"] + rows["y"], vrp

    def test_refresh_unbiasedness(self, shifted_setup):
        qfs, sub, sub_fs, x0, y0 = shifted_setup
        full = sub_fs.batch_grad_x(np.arange(20), x0, y0)
        rng = np.random.default_rng(11)
        draws = np.array([
            sub_fs.batch_grad_x(qfs.spec.sample(rng, 10), x0, y0)
            for _ in range(2000)
        ])
        err = np.abs(draws.mean(axis=0) - full)
        se = draws.std(axis=0) / np.sqrt(2000)
        assert np.all(err <= 4 * se + 1e-12)

    def test_oversized_batch_warns(self, shifted_setup):
        _, sub, sub_fs, x0, y0 = shifted_setup
        vrp = VrParams(tau=0.03, sigma=0.03, b=50, b_x=3, b_y=3, q=5,
                       n_inner=3, mu_x=1.0)
        with pytest.warns(UserWarning):
            vr_sapd_run(sub_fs, sub, vrp, x0, y0, np.random.default_rng(0))

    def test_seed_determinism(self, shifted_setup):
        _, sub, sub_fs, x0, y0 = shifted_setup
        vrp = VrParams(tau=0.03, sigma=0.03, b=10, b_x=3, b_y=3, q=5,
                       n_inner=12, mu_x=1.0)
        a = vr_sapd_run(sub_fs, sub, vrp, x0, y0, np.random.default_rng(3))
        b = vr_sapd_run(sub_fs, sub, vrp, x0, y0, np.random.default_rng(3))
        np.testing.assert_array_equal(a.x_last, b.x_last)
        np.testing.assert_array_equal(a.y_last, b.y_last)


def spider_bound_along_trajectory(points, params: VrParams, as_constants,
                                  delta: float, which: str = "x"):
    """Per-iteration bound on the estimator mean squared error, from a fixed
    trajectory.

    points: sequence of (x_k, y_{k+1}) pairs the x-estimator is evaluated at
    (for the y-axis, (x_k, y_k) pairs).  At refresh steps (k % q == 0) the
    bound is delta^2/b; otherwise it adds the since-refresh increments
        sum_{i=ref+1}^{k} (2 La^2/b') ||x_i - x_{i-1}||^2 + (2 Lb^2/b') ||y'_i - y'_{i-1}||^2
    with (La, Lb) the almost-sure constants of the axis and b' the small
    batch size.
    """
    s = as_constants
    if which == "x":
        la, lb, b_small = s.l_xx, s.l_xy, params.b_x
    else:
        la, lb, b_small = s.l_yx, s.l_yy, params.b_y
    base = delta**2 / params.b
    bounds = []
    running = 0.0
    for k, (xk, yk) in enumerate(points):
        if k % params.q == 0:
            running = 0.0
        else:
            x_prev, y_prev = points[k - 1]
            running += (2.0 * la**2 / b_small) * float(np.sum((xk - x_prev) ** 2))
            running += (2.0 * lb**2 / b_small) * float(np.sum((yk - y_prev) ** 2))
        bounds.append(base + running)
    return np.array(bounds)


def spider_variance_probe(fs, p, points, params: VrParams, reps: int, rng,
                          delta: float, which: str = "x", as_constants=None):
    """Monte-Carlo MSE of the solver's own SPIDER estimator along a fixed
    trajectory, with the analytic bound it must not exceed.

    Each repetition drives a fresh `_spider_gradient` through the points:
    `primal(x_k, y_{k+1})` for the x-estimator v_k; for the y-estimator,
    `first(x_0, y_0)` gives w_0 and then `dual(x_k, y_k)` gives
    s_k = 2 w_k - w_{k-1}, from which w_k is read back as
    (s_k + w_{k-1}) / 2, equal to w_k up to rounding.  The MSE is against
    the full-batch gradient, plus
    p's grad_h on the x-axis.  The bound takes as_constants, fs's own
    almost-sure constants by default.  Returns a dict with per-iteration
    'mse', 'bound' and 'stderr'.
    """
    grad = fs.batch_grad_x if which == "x" else fs.batch_grad_y
    full = [grad(np.arange(fs.n_comp), xk, yk) for xk, yk in points]
    if which == "x" and p.grad_h is not None:
        full = [g + p.grad_h(xk) for g, (xk, _) in zip(full, points)]
    err = np.empty((reps, len(points)))
    for r in range(reps):
        first, primal, dual = _spider_gradient(fs, p, params, rng)
        for k, point in enumerate(points):
            if which == "x":
                value = primal(*point)
            elif k == 0:
                value = first(*point)
            else:
                value = (dual(*point) + value) / 2.0
            err[r, k] = float(np.sum((value - full[k]) ** 2))
    bound = spider_bound_along_trajectory(points, params,
                                          as_constants or fs.as_smoothness,
                                          delta, which)
    return {"mse": err.mean(axis=0), "bound": bound,
            "stderr": err.std(axis=0) / np.sqrt(reps)}


class TestVarianceProbe:
    def make_probe_inputs(self, n_comp=30, spread=0.4, seed=7):
        rng = np.random.default_rng(seed)
        qfs = make_quadratic_finite_sum(n_comp, 3, 2, 1.0, 1.0, rng, spread=spread)
        x0, y0 = rng.standard_normal(3), rng.standard_normal(2)
        return qfs, x0, y0

    def test_stationary_trajectory_bound_collapses(self):
        qfs, x0, y0 = self.make_probe_inputs()
        params = VrParams(tau=0.1, sigma=0.1, b=8, b_x=3, b_y=3, q=4,
                          n_inner=8, mu_x=1.0)
        points = [(x0.copy(), y0.copy()) for _ in range(8)]
        delta = np.sqrt(qfs.single_draw_variance_x(x0, y0))
        bound = spider_bound_along_trajectory(points, params,
                                              qfs.spec.as_smoothness, delta)
        np.testing.assert_allclose(bound, delta**2 / 8, atol=1e-12)
        probe = spider_variance_probe(qfs.spec, qfs.base.problem, points, params,
                                      reps=600, rng=np.random.default_rng(1), delta=delta)
        assert np.all(probe["mse"] <= probe["bound"] + 3 * probe["stderr"])

    def test_refresh_step_mse(self):
        qfs, x0, y0 = self.make_probe_inputs()
        params = VrParams(tau=0.1, sigma=0.1, b=8, b_x=3, b_y=3, q=3,
                          n_inner=6, mu_x=1.0)
        rng = np.random.default_rng(2)
        points = [(x0 + 0.2 * k * rng.standard_normal(3),
                   y0 + 0.1 * k * rng.standard_normal(2)) for k in range(6)]
        delta = max(np.sqrt(qfs.single_draw_variance_x(*pt)) for pt in points)
        probe = spider_variance_probe(qfs.spec, qfs.base.problem, points, params,
                                      reps=800, rng=np.random.default_rng(3), delta=delta)
        for k in range(0, 6, 3):  # refresh indices
            assert probe["mse"][k] <= delta**2 / 8 + 3 * probe["stderr"][k]

    def test_moving_trajectory_dominated(self):
        qfs, x0, y0 = self.make_probe_inputs()
        params = VrParams(tau=0.1, sigma=0.1, b=10, b_x=4, b_y=4, q=6,
                          n_inner=6, mu_x=1.0)
        rng = np.random.default_rng(4)
        points = [(x0 + 0.15 * k * np.ones(3), y0 - 0.1 * k * np.ones(2))
                  for k in range(6)]
        delta = max(np.sqrt(qfs.single_draw_variance_x(*pt)) for pt in points)
        probe = spider_variance_probe(qfs.spec, qfs.base.problem, points, params,
                                      reps=2000, rng=rng, delta=delta)
        assert np.all(probe["mse"] <= probe["bound"] + 3 * probe["stderr"])

    def test_y_axis_probe(self):
        qfs, x0, y0 = self.make_probe_inputs()
        params = VrParams(tau=0.1, sigma=0.1, b=10, b_x=4, b_y=4, q=4,
                          n_inner=8, mu_x=1.0)
        points = [(x0 + 0.1 * k * np.ones(3), y0 + 0.05 * k * np.ones(2))
                  for k in range(8)]
        delta = max(np.sqrt(qfs.single_draw_variance_y(*pt)) for pt in points)
        probe = spider_variance_probe(qfs.spec, qfs.base.problem, points, params,
                                      reps=600, rng=np.random.default_rng(5), delta=delta,
                                      which="y")
        assert np.all(probe["mse"] <= probe["bound"] + 3 * probe["stderr"])


def single_draw_variance(fs, x, y, which):
    """E||g_j - mean_j g_j||^2 of one uniform component draw, by enumeration."""
    grad = fs.batch_grad_x if which == "x" else fs.batch_grad_y
    comps = np.array([grad(np.array([i]), x, y) for i in range(fs.n_comp)])
    return float(np.mean(np.sum((comps - comps.mean(axis=0)) ** 2, axis=1)))


def with_shift_constants(fs, sub, coef):
    """(fs, sub, fs's almost-sure constants with l_xx grown by the shift
    coef): the stage's shift is sub's grad_h, which the x-estimator adds."""
    s = fs.as_smoothness
    return fs, sub, replace(s, l_xx=s.l_xx + coef)


def shifted_quadratic_fs():
    rng = np.random.default_rng(7)
    qfs = make_quadratic_finite_sum(12, 3, 2, 1.0, 1.0, rng, spread=0.4)
    # gamma = 1, so mu_x = 1 shifts by 2
    sub = shifted_subproblem(qfs.base.problem, rng.standard_normal(3), 1.0)
    return with_shift_constants(qfs.spec, sub, 2.0)


def shifted_dro_fs():
    ds = datasets.synthetic_logistic_dataset(12, 3, np.random.default_rng(8))
    inst = datasets.build_dro(ds)
    p = inst.problem
    mu_x = 0.5 - p.convexity.gamma  # a shift by 0.5
    sub = shifted_subproblem(p, np.random.default_rng(9).standard_normal(3), mu_x)
    return with_shift_constants(inst.finite_sum, sub, 0.5)


SHIFTED_FINITE_SUMS = {"quadratic": shifted_quadratic_fs, "dro": shifted_dro_fs}


@st.composite
def spider_trajectories(draw):
    """A finite sum with its shifted problem and constants, VR batch sizes
    and a random-walk trajectory.

    The DRO walk keeps y on the simplex, where its per-component constants
    hold (they bound y_i by 1).
    """
    kind = draw(st.sampled_from(sorted(SHIFTED_FINITE_SUMS)))
    fs, sub, as_constants = SHIFTED_FINITE_SUMS[kind]()
    b_x, b_y = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    b = draw(st.integers(max(b_x, b_y), 12))
    q = draw(st.integers(1, 5))
    n_points = draw(st.integers(2, 9))
    scale = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = 3, (2 if kind == "quadratic" else fs.n_comp)
    xs = np.cumsum(scale * rng.standard_normal((n_points, n)), axis=0)
    zs = np.cumsum(scale * rng.standard_normal((n_points, m)), axis=0)
    if kind == "dro":
        zs = np.exp(zs) / np.exp(zs).sum(axis=1, keepdims=True)
    params = VrParams(tau=0.1, sigma=0.1, b=b, b_x=b_x, b_y=b_y, q=q,
                      n_inner=n_points, mu_x=1.0)
    return (fs, sub, as_constants, params, list(zip(xs, zs)),
            draw(st.sampled_from(["x", "y"])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=spider_trajectories(), seed=st.integers(0, 2**32 - 1))
def test_spider_mse_under_its_bound_on_random_trajectories(case, seed):
    # the solver's own estimator, with the shifted problem's grad_h split
    # out of the batches, on quadratic and DRO finite sums: at a refresh the bound is
    # attained where the single-draw variance peaks, so the Monte-Carlo MSE
    # gets four standard errors over thirty drawn trajectories
    fs, sub, as_constants, params, points, which = case
    delta = max(np.sqrt(single_draw_variance(fs, *pt, which)) for pt in points)
    probe = spider_variance_probe(fs, sub, points, params, reps=400,
                                  rng=np.random.default_rng(seed), delta=delta,
                                  which=which, as_constants=as_constants)
    assert np.all(probe["mse"] <= probe["bound"] + 4 * probe["stderr"] + 1e-24)
