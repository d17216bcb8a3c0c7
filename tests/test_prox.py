import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapdplus import datasets
from sapdplus.errors import ConfigurationError
from sapdplus.prox import (project_simplex, prox_quadratic_over_simplex,
                           prox_zero)


def simplex_projection_oracle(v):
    """Exact projection by enumerating KKT support sets (dims <= ~10).

    For support S the candidate is w_i = v_i + (1 - sum_S v)/|S| on S and 0
    elsewhere; it is the projection iff w >= 0 on S and v_i + lam <= 0 off S.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    best = None
    for size in range(1, d + 1):
        for support in itertools.combinations(range(d), size):
            s = list(support)
            lam = (1.0 - v[s].sum()) / size
            w = np.zeros(d)
            w[s] = v[s] + lam
            off = [i for i in range(d) if i not in support]
            if np.min(w[s]) < -1e-12:
                continue
            if off and np.max(v[off] + lam) > 1e-12:
                continue
            dist = np.sum((w - v) ** 2)
            if best is None or dist < best[0] - 1e-15:
                best = (dist, w)
    assert best is not None
    return best[1]


def qos_kkt_residual(y, v, step, eta2, n_scale):
    """KKT residual of min (eta2/2)||n y - 1||^2 + ||y - v||^2/(2 step) over the simplex."""
    grad = eta2 * n_scale * (n_scale * y - 1.0) + (y - v) / step
    active = y > 1e-12
    if not np.any(active):
        return np.inf
    lam = -grad[active].mean()
    res = np.max(np.abs(grad[active] + lam))
    if np.any(~active):
        res = max(res, np.max(np.maximum(-(grad[~active] + lam), 0.0)))
    return res


class TestProxZero:
    def test_passthrough(self):
        np.testing.assert_array_equal(prox_zero(np.array([1.5, -2.0]), 0.3),
                                      [1.5, -2.0])

    def test_zero_vector(self):
        np.testing.assert_array_equal(prox_zero(np.zeros(4), 1.0), np.zeros(4))

    def test_any_step(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(6)
            step = 10 ** rng.uniform(-3, 3)
            np.testing.assert_array_equal(prox_zero(v, step), v)


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5])),
                                   [0.5, 0.5], atol=1e-15)

    def test_two_dim_corner(self):
        # oracle: KKT support enumeration
        v = np.array([2.0, 0.0])
        expected = simplex_projection_oracle(v)
        np.testing.assert_allclose(expected, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(project_simplex(v), expected, atol=1e-12)

    def test_symmetric(self):
        np.testing.assert_allclose(project_simplex(np.array([0.3, 0.3, 0.3])),
                                   np.ones(3) / 3, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            project_simplex(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 4, 8])
    def test_non_finite_rejected(self, bad, where):
        # alone, and in a vector whose other coordinates all stay active,
        # which would otherwise take the fast path
        for v in (np.array([bad]), np.full(9, 1.0 / 9)):
            v[min(where, v.size - 1)] = bad
            with pytest.raises(ConfigurationError,
                               match="^project_simplex expects finite input$"):
                project_simplex(v)

    def test_feasibility_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 12)) * 3
            w = project_simplex(v)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            d = int(rng.integers(2, 6))
            v = rng.uniform(-2, 2, d)
            np.testing.assert_allclose(project_simplex(v),
                                       simplex_projection_oracle(v), atol=1e-8)


@st.composite
def simplex_targets(draw, sparse):
    """(v, active) with project_simplex(v) known to keep every coordinate
    (sparse=False) or to zero at least one (sparse=True), up to a shift."""
    d = draw(st.integers(2 if sparse else 1, 40))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    offset = draw(st.floats(-100.0, 100.0))
    if not sparse:
        # v_i + lam >= 1/d - 2 spread > 0 at the projection's shift lam
        spread = draw(st.floats(0.0, 0.49)) / d
        return offset + 1.0 / d + spread * u
    v = offset + draw(st.floats(1.0, 1000.0)) * u
    # the projection's threshold is at least max(v) - 1, so coordinate k,
    # set below the others' maximum by more than 1, drops
    k = draw(st.integers(0, d - 1))
    v[k] = np.delete(v, k).max() - 1.0 - draw(st.floats(0.1, 10.0))
    return v


def assert_projection_identity(p, direction, scale, sparse):
    """p lies on the simplex and <direction, e_i - p> <= 1e-12 scale at every
    vertex e_i: the optimality condition of a projection of p + direction.
    scale is 1 + the largest |coordinate| projected: p = v + lam rounds
    relative to v, so the sum of p does too.  The e_i - p sum to 0 once p
    sums to 1, so a constant part of direction adds nothing; it is taken
    out first, or it would multiply the rounding of sum(p)."""
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12 * scale
    direction = direction - direction.mean()
    assert np.max(direction - direction @ p) <= 1e-12 * scale
    assert (np.count_nonzero(p) < p.size) == sparse


class TestProxIdentities:
    @settings(max_examples=150, deadline=None)
    @given(sparse=st.booleans(), data=st.data())
    def test_project_simplex(self, sparse, data):
        v = data.draw(simplex_targets(sparse))
        p = project_simplex(v)
        assert_projection_identity(p, v - p, 1.0 + np.max(np.abs(v)), sparse)

    @settings(max_examples=150, deadline=None)
    @given(sparse=st.booleans(), data=st.data(), step=st.floats(1e-3, 1e3),
           eta2=st.floats(1e-6, 1.0), n_scale=st.integers(1, 1000))
    def test_prox_quadratic_over_simplex(self, sparse, data, step, eta2, n_scale):
        # v is chosen so that the shifted point of the objective
        # g(y) + ||y - v||^2/(2 step) is the target; the identity is checked
        # on minus the objective's gradient, scaled by 1/(its curvature)
        target = data.draw(simplex_targets(sparse))
        curv = eta2 * n_scale**2 + 1.0 / step
        v = step * (curv * target - eta2 * n_scale)
        y = prox_quadratic_over_simplex(eta2, n_scale)(v, step)
        grad = eta2 * n_scale * (n_scale * y - 1.0) + (y - v) / step
        assert_projection_identity(y, -grad / curv, 1.0 + np.max(np.abs(target)), sparse)


class TestProxQuadraticOverSimplex:
    def test_vanishing_quadratic_limit(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, 5)
        close = prox_quadratic_over_simplex(1e-12, 3)(v, 1.0)
        np.testing.assert_allclose(close, project_simplex(v), atol=1e-9)

    def test_two_dim_golden_section(self):
        # parameterize the 1-simplex by y = (t, 1-t) and minimize exactly
        v = np.array([0.7, 0.1])
        step, eta2, n_scale = 1.0, 0.25, 2

        def objective(t):
            y = np.array([t, 1.0 - t])
            return (0.5 * eta2 * np.sum((n_scale * y - 1.0) ** 2)
                    + np.sum((y - v) ** 2) / (2 * step))

        lo, hi = 0.0, 1.0
        inv = (np.sqrt(5) - 1) / 2
        a, b = hi - inv * (hi - lo), lo + inv * (hi - lo)
        fa, fb = objective(a), objective(b)
        for _ in range(120):
            if fa < fb:
                hi, b, fb = b, a, fa
                a = hi - inv * (hi - lo)
                fa = objective(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + inv * (hi - lo)
                fb = objective(b)
        t_star = 0.5 * (lo + hi)
        got = prox_quadratic_over_simplex(eta2, n_scale)(v, step)
        np.testing.assert_allclose(got, [t_star, 1 - t_star], atol=1e-8)

    def test_uniform_fixed_point(self):
        d = 4
        v = np.full(d, 1.0 / d)
        got = prox_quadratic_over_simplex(0.5, d)(v, 0.7)
        np.testing.assert_allclose(got, v, atol=1e-12)

    def test_kkt_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            v = rng.uniform(-1, 2, d)
            step = 10 ** rng.uniform(-2, 1)
            eta2 = 10 ** rng.uniform(-3, 0)
            y = prox_quadratic_over_simplex(eta2, d)(v, step)
            assert qos_kkt_residual(y, v, step, eta2, d) <= 1e-8

    def test_bad_step(self):
        with pytest.raises(ConfigurationError):
            prox_quadratic_over_simplex(1.0, 3)(np.ones(3), 0.0)


class TestProxBox:
    """The box prox of the bilinear toy's dual: a clamp to [-1, 1]."""

    prox = staticmethod(datasets.make_bilinear_box_toy().problem.prox_g)

    def test_clamp(self):
        got = self.prox(np.array([3.0, -3.0]), 0.5)
        np.testing.assert_array_equal(got, [1.0, -1.0])

    def test_interior_unchanged(self):
        v = np.array([0.2, -0.4])
        np.testing.assert_array_equal(self.prox(v, 2.0), v)

    def test_step_irrelevant(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(7) * 2
        np.testing.assert_array_equal(self.prox(v, 1e-3), self.prox(v, 1e3))


def test_nonexpansiveness_all_operators():
    rng = np.random.default_rng(6)
    operators = [
        prox_zero,
        TestProxBox.prox,
        lambda v, s: project_simplex(v),
        prox_quadratic_over_simplex(0.3, 4),
    ]
    for op in operators:
        for _ in range(100):
            u = rng.standard_normal(4) * 2
            v = rng.standard_normal(4) * 2
            step = 10 ** rng.uniform(-2, 1)
            lhs = np.linalg.norm(op(u, step) - op(v, step))
            assert lhs <= np.linalg.norm(u - v) + 1e-12
