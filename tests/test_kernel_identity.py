"""The DRO kernels against frozen reference copies (tests/reference_kernels.py).

The dense rows `parse_libsvm` builds, the DRO y-oracles, losses and
Lagrangian must match the references bit for bit, and on synthetic data
so must everything `build_dro` takes from its rows: the signed rows, the
constants and the oracles at fixed points, against the CSR round trip the
data took before it went dense.  Four outputs are allowed to move,
within a stated tolerance (rtol = 1e-12, atol = 1e-12 * max|expected|):
the deterministic `grad_x` and the batch x-gradient (matrix-vector
products in place of an n x d matrix and of the tree mean), the simplex
projection (an O(d) all-active check with a pairwise sum ahead of the
sorted path), and `robust_loss` (the dual best response in closed form in
place of 50 prox-gradient steps).

The hot-path products are written `ndarray.dot`, not `@` (see the `sapd`
module docstring), on the premise that both call the same BLAS routine.
The tests at the end pin that premise, its one exception (two one-element
operands), and the oracles built on it, bit for bit; if a BLAS build ever
breaks it, they are the tests that fail.  Beside them, the fused two-point
differences of the DRO batch oracles equal the two batch calls they
replace, and a row's product depends on its place in the matrix, which is
why a large batch still gathers its rows.  After them, the premise of the
0-d float64 coefficients: each rewritten operation equals its Python-float
form bit for bit, and the inner loop's running sums, written into a spare
array, equal the augmented operators.
"""

import gc
import gzip
import itertools
import os
import tempfile
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_kernels import (ReferenceDro, reference_dense, reference_dro_data,
                               reference_pack_rows, reference_project_simplex,
                               reference_prox_quadratic_over_simplex,
                               reference_synthetic_logistic_dataset)
from sapdplus import datasets
from sapdplus.problem import is_replica_safe
from sapdplus.prox import project_simplex, prox_quadratic_over_simplex
from sapdplus.sapd import _STACK_MARGIN

# the test u_j + (1 - sum_{i<=j} u_i)/j > 0 holds at indices 0, 1, 2, 5 of
# the sorted vector: counting them would pick index 3, not 5
NON_MONOTONE = np.array([
    -1.0, 0.1, 0.1, 0.4, -1.1, 0.3, 0.5, 0.2, -1.0, 0.8, 0.8, 0.9, 1.2, 0.4,
    -0.4, 0.3, -0.6, 0.2, -0.3, 1.3, -1.5, -1.3, 0.1, 0.1, 0.5, 0.2, -0.6, 0.8,
    0.4, -0.7, -1.7, 0.6, -0.7, -0.6])


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def assert_close(got, expected):
    """Equal to rounding: the tolerance the deterministic grad_x always had."""
    np.testing.assert_allclose(got, expected, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(expected))))


def _float_vectors(elements, max_size=60):
    return st.lists(elements, min_size=1, max_size=max_size).map(np.array)


random_vectors = _float_vectors(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
# one decimal on a coarse grid: many exact ties in the sort and the sums
rounded_ties = _float_vectors(st.integers(-20, 20).map(lambda k: k / 10.0))
# within 0.45/n of the uniform point, so every coordinate stays active
all_active = st.integers(1, 60).flatmap(lambda n: st.lists(
    st.floats(-0.45, 0.45), min_size=n, max_size=n).map(
        lambda e: (1.0 + np.array(e)) / len(e)))


@st.composite
def near_boundary(draw):
    """v with min(v) + (1 - sum(v))/d a few ulps from 0: the smallest
    coordinate sits where the all-active check changes its answer.  A
    common shift of v moves neither the projection nor the boundary."""
    d = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.sampled_from([0.0, -1.0, 1e-3, 1e3]))
    rest = rng.random(d - 1) + 0.01
    rest *= draw(st.floats(0.05, 0.99)) / rest.sum()
    low = shift - (1.0 - rest.sum()) / (d - 1)
    step = np.inf if draw(st.booleans()) else -np.inf
    for _ in range(draw(st.integers(0, 6))):
        low = np.nextafter(low, step)
    v = np.append(rest + shift, low)
    return v[rng.permutation(d)]


def _takes_fast_path(v):
    lam = (1.0 - v.sum()) / v.size
    return bool(np.isfinite(lam) and v.min() + lam > 0)


class TestProjectSimplex:
    @settings(max_examples=300, deadline=None)
    @given(v=st.one_of(random_vectors, rounded_ties, all_active))
    def test_matches_reference(self, v):
        ref = reference_project_simplex(v)
        assert_close(project_simplex(v), ref)
        if not _takes_fast_path(v):  # the sorted path is the reference's
            assert _bits(project_simplex(v)) == _bits(ref)

    @settings(max_examples=100, deadline=None)
    @given(v=all_active)
    def test_all_active_inputs_take_fast_path(self, v):
        assert np.all(project_simplex(v) > 0)

    @settings(max_examples=300, deadline=None)
    @given(v=near_boundary())
    def test_near_boundary_fast_path(self, v):
        # the draws fall on both sides of the check; where it holds, the
        # output is v + lam itself, and positive
        w = project_simplex(v)
        scale = max(1.0, float(np.max(np.abs(v))))
        assert np.all(w >= 0)
        assert abs(float(np.sum(w)) - 1.0) <= 64 * v.size * np.finfo(float).eps * scale
        ref = reference_project_simplex(v)
        if _takes_fast_path(v):
            assert np.all(w > 0)
            assert _bits(w) == _bits(v + (1.0 - v.sum()) / v.size)
        else:  # the sorted path is the reference's
            assert _bits(w) == _bits(ref)
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12 * scale)

    def test_non_monotone_threshold(self):
        u = np.sort(NON_MONOTONE)[::-1]
        cssv = np.cumsum(u)
        holds = u + (1.0 - cssv) / np.arange(1, u.size + 1) > 0
        np.testing.assert_array_equal(np.nonzero(holds)[0], [0, 1, 2, 5])
        rho = np.count_nonzero(holds) - 1
        counted = np.maximum(NON_MONOTONE + (1.0 - cssv[rho]) / (rho + 1.0), 0.0)
        ref = reference_project_simplex(NON_MONOTONE)
        assert _bits(counted) != _bits(ref)
        assert _bits(project_simplex(NON_MONOTONE)) == _bits(ref)

    @settings(max_examples=300, deadline=None)
    @given(v=st.one_of(random_vectors, rounded_ties, all_active, near_boundary()))
    def test_kkt(self, v):
        # w = max(v - t, 0) for one threshold t, and w sums to 1
        w = project_simplex(v)
        tol = 64 * v.size * np.finfo(float).eps * max(1.0, float(np.max(np.abs(v))))
        assert np.all(w >= 0)
        assert abs(float(np.sum(w)) - 1.0) <= tol
        active = w > 0
        gaps = v[active] - w[active]
        t = float(np.mean(gaps))
        assert np.all(np.abs(gaps - t) <= tol)
        assert np.all(v[~active] <= t + tol)


class TestProxQuadraticOverSimplex:
    """The prox projects v / (1 + eta2 n^2 step); the reference projects
    (v/step + eta2 n) / (eta2 n^2 + 1/step), the same point plus a multiple
    of the ones vector, which the projection ignores.  They agree within
    1e-12 * (1 + max|v|)."""

    @staticmethod
    def assert_matches_reference(v, step, eta2, n_scale):
        got = prox_quadratic_over_simplex(eta2, n_scale)(v, step)
        ref = reference_prox_quadratic_over_simplex(v, step, eta2, n_scale)
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-12 * (1.0 + float(np.max(np.abs(v)))))

    prox_args = dict(step=st.floats(1e-3, 1e3), eta2=st.floats(1e-6, 10.0),
                     n_scale=st.integers(1, 1000))

    @settings(max_examples=300, deadline=None)
    @given(w=st.one_of(random_vectors, rounded_ties), **prox_args)
    def test_matches_reference(self, w, step, eta2, n_scale):
        # v is scaled so that the projected point is w to rounding; most of
        # these draws take the sort path
        v = w * (1.0 + eta2 * n_scale**2 * step)
        self.assert_matches_reference(v, step, eta2, n_scale)

    @settings(max_examples=200, deadline=None)
    @given(w=all_active, **prox_args)
    def test_all_active_matches_reference(self, w, step, eta2, n_scale):
        scale = 1.0 + eta2 * n_scale**2 * step
        v = w * scale
        assert _takes_fast_path(v / scale)
        self.assert_matches_reference(v, step, eta2, n_scale)

    @settings(max_examples=300, deadline=None)
    @given(w=near_boundary(), prox=st.sampled_from(
        # (step, eta2, n_scale) with 1 + eta2 n^2 step a power of two
        [(1.0, 1.0, 1), (3.0, 1.0, 1), (7.0, 1.0, 1), (1.0, 0.0625, 4),
         (0.25, 2.0**-10, 64)]))
    def test_near_boundary(self, w, prox):
        # v / (1 + eta2 n^2 step) is w exactly, so the projected point sits
        # a few ulps on either side of the all-active check
        step, eta2, n_scale = prox
        scale = 1.0 + eta2 * n_scale**2 * step
        v = w * scale
        assert _bits(v / scale) == _bits(w)
        self.assert_matches_reference(v, step, eta2, n_scale)


def _libsvm_text(labels, rows):
    """LIBSVM lines of (cols, vals) rows; repr round-trips every float64."""
    return "".join(
        " ".join([label] + [f"{j + 1}:{v!r}" for j, v in zip(cols, vals)]) + "\n"
        for label, (cols, vals) in zip(labels, rows))


LABEL_SIGNS = {"0": -1, "-1": -1, "+1": 1, "1": 1}
ROW_LENGTHS = st.one_of(st.just(0), st.integers(1, 8), st.integers(9, 128),
                        st.integers(129, 300))
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -1e308]


@st.composite
def libsvm_data(draw):
    """(labels as written, (cols, vals) rows): empty rows, explicit j:0
    entries, rows past 8 and 128 entries, labels 0, -1 and +1."""
    width = draw(st.sampled_from([8, 40, 300]))
    lengths = draw(st.lists(ROW_LENGTHS.map(lambda k: min(k, width)),
                            min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e3]))
    rows = []
    for k in lengths:
        cols = np.sort(rng.choice(width, k, replace=False))
        vals = rng.standard_normal(k) * scale
        special = rng.random(k) < 0.2
        vals[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
        rows.append((cols, vals.tolist()))
    labels = draw(st.lists(st.sampled_from(sorted(LABEL_SIGNS)),
                           min_size=len(rows), max_size=len(rows)))
    return labels, rows


def _parse_text(text, gz=False):
    """parse_libsvm of LIBSVM text written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.libsvm" + (".gz" if gz else ""))
        with (gzip.open if gz else open)(path, "wt") as f:
            f.write(text)
        return datasets.parse_libsvm(path)


@settings(max_examples=200, deadline=None)
@given(data=libsvm_data(), source=st.sampled_from(["path", "gz"]))
def test_parse_libsvm_matches_row_loop(data, source):
    labels, rows = data
    d = max((int(cols[-1]) + 1 for cols, _ in rows if len(cols)), default=0)
    ds = _parse_text(_libsvm_text(labels, rows), gz=source == "gz")
    ref = reference_pack_rows([LABEL_SIGNS[lab] for lab in labels], rows, d)
    assert (ds.n_samples, ds.n_features) == (len(rows), d)
    assert _bits(ds.features) == _bits(reference_dense(ref))
    assert _bits(ds.labels) == _bits(ref.labels)


def _ragged_libsvm():
    """(dataset, its CSR form): 25 rows over 9 columns, about 40 % filled."""
    rng = np.random.default_rng(11)
    labels, rows = [], []
    for i in range(25):
        cols = np.flatnonzero(rng.random(9) < 0.4)
        vals = [float(f"{rng.standard_normal():.17g}") for _ in cols]
        labels.append("+1" if rng.random() < 0.5 else "-1")
        rows.append((cols, vals))
    ds = _parse_text(_libsvm_text(labels, rows))
    return ds, reference_pack_rows([LABEL_SIGNS[lab] for lab in labels], rows,
                                   ds.n_features)


# (dataset, the CSR form the references read)
DRO_CASES = {
    "synthetic": (datasets.synthetic_logistic_dataset(40, 6, np.random.default_rng(0)),
                  reference_synthetic_logistic_dataset(40, 6, np.random.default_rng(0))),
    "ragged": _ragged_libsvm(),
}


def _pair(case):
    ds, ref_ds = DRO_CASES[case]
    inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=1.0 / ds.n_samples**2)
    return inst, ReferenceDro(ref_ds, 10.0, 1e-3, 1.0 / ds.n_samples**2)


@st.composite
def oracle_inputs(draw, n, d):
    size = draw(st.sampled_from([1, 10, n]))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 300.0]))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d) * scale
    y = np.abs(rng.standard_normal(n))
    return idx, x, y / y.sum()


@pytest.mark.parametrize("case", sorted(DRO_CASES))
def test_dro_oracles_match_reference(case):
    inst, ref = _pair(case)
    p, fs = inst.problem, inst.finite_sum
    n, d = DRO_CASES[case][0].n_samples, DRO_CASES[case][0].n_features

    @settings(max_examples=150, deadline=None)
    @given(inputs=oracle_inputs(n, d))
    def check(inputs):
        idx, x, y = inputs
        assert_close(fs.batch_grad_x(idx, x, y) + p.grad_h(x), ref.batch_grad_x(idx, x, y))
        assert _bits(fs.batch_grad_y(idx, x, y)) == _bits(ref.batch_grad_y(idx, x, y))
        assert _bits(p.grad_y(x, y)) == _bits(ref.grad_y(x, y))
        assert _bits(inst.losses(x)) == _bits(ref.losses(x))
        assert inst.lagrangian(x, y).hex() == ref.lagrangian(x, y).hex()
        # matrix-free: one product with the signed rows, not an n x d matrix
        assert_close(p.grad_x(x, y), ref.grad_x(x, y))

    check()


@pytest.mark.parametrize("case", sorted(DRO_CASES))
def test_full_batch_is_the_full_gradient(case):
    # one helper computes both x-gradients: over every index in order, the
    # batch oracles (the x-batch plus the shared grad_h) are the
    # deterministic ones bit for bit
    inst, _ = _pair(case)
    p, fs = inst.problem, inst.finite_sum
    n, d = DRO_CASES[case][0].n_samples, DRO_CASES[case][0].n_features
    every = np.arange(n)

    @settings(max_examples=150, deadline=None)
    @given(inputs=oracle_inputs(n, d))
    def check(inputs):
        _, x, y = inputs
        assert _bits(fs.batch_grad_x(every, x, y) + p.grad_h(x)) == _bits(p.grad_x(x, y))
        assert _bits(fs.batch_grad_y(every, x, y)) == _bits(p.grad_y(x, y))

    check()


def test_sgrad_oracles_match_reference():
    inst, ref = _pair("synthetic")
    p, fs = inst.problem, inst.finite_sum
    x = np.random.default_rng(1).standard_normal(6)
    y = np.full(40, 1.0 / 40)
    assert (p.draw, p.draw_x, p.draw_y) == (fs.sample, p.oracle_batch, p.oracle_batch)
    for seed in range(20):
        idx = fs.sample(np.random.default_rng(seed), p.oracle_batch)
        gx = p.sgrad_x(x, y, idx)
        gy = p.sgrad_y(x, y, idx)
        assert _bits(gx) == _bits(ref.batch_grad_x(idx, x, y))
        assert _bits(gy) == _bits(ref.batch_grad_y(idx, x, y))


@pytest.mark.parametrize("eta2", [None, 1e-4, 1.0])
@pytest.mark.parametrize("scale", [0.0, 1.0, 30.0])
def test_robust_loss_matches_fifty_step_dual(eta2, scale):
    ds = datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    eta2 = 1.0 / 1000**2 if eta2 is None else eta2
    inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=eta2)
    ref = ReferenceDro(reference_synthetic_logistic_dataset(1000, 20, np.random.default_rng(7)),
                       10.0, 1e-3, eta2)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.standard_normal(20) * scale
        expected = ref.robust_loss(x)
        assert abs(inst.robust_loss(x) - expected) <= 1e-13 * abs(expected)


def test_instance_freed_without_cycle_collector():
    ds = datasets.synthetic_logistic_dataset(30, 4, np.random.default_rng(2))
    enabled = gc.isenabled()
    gc.disable()
    try:
        inst = datasets.build_dro(ds)
        alive = [weakref.ref(inst), weakref.ref(inst.problem),
                 weakref.ref(inst.finite_sum)]
        del inst
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


# ndarray.dot against @, bit for bit

SCALES = [1e-150, 1e-3, 1.0, 1e3, 1e150]


def assert_dot_is_matmul(got, expected, one_by_one):
    """Equal bit for bit.  When both operands have one element, .dot is one
    multiply and @ adds that product to +0.0, so a -0.0 product comes back
    +0.0 from @: there the two agree once the sign of a zero is dropped."""
    if one_by_one:
        got, expected = got + 0.0, expected + 0.0
    assert _bits(got) == _bits(expected)


def _with_zeros(rng, a, zeros):
    """a with about a quarter of its entries +0.0 and a quarter -0.0."""
    if zeros:
        u = rng.random(a.shape)
        a = np.where(u < 0.25, 0.0, np.where(u > 0.75, -0.0, a))
    return a


@st.composite
def dot_operands(draw, max_rows=2000, max_cols=40):
    """(rows, v): an (n, d) array in one of the layouts the oracles use and a
    vector it multiplies, v of length d, or of length n for a transpose."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, zeros = draw(st.sampled_from(SCALES)), draw(st.booleans())
    rows = _with_zeros(rng, rng.standard_normal((n, d)) * scale, zeros)
    layout = draw(st.sampled_from(["c", "t", "take", "take-t"]))
    if layout.startswith("take"):
        # gathered with repeats, in draw order, as batch_grad_x gathers them
        rows = rows.take(rng.integers(0, n, draw(st.integers(1, n))), axis=0)
    if layout.endswith("t"):
        rows = rows.T
    return rows, _with_zeros(rng, rng.standard_normal(rows.shape[1]) * scale, zeros)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from(SCALES), zeros=st.booleans())
def test_vector_dot_is_matmul(n, seed, scale, zeros):
    rng = np.random.default_rng(seed)
    u, v = _with_zeros(rng, rng.standard_normal((2, n)) * scale, zeros)
    assert_dot_is_matmul(u.dot(v), u @ v, n == 1)
    # a sum of squares is never -0.0, so the guard's products agree outright
    assert_dot_is_matmul(v.dot(v), v @ v, False)


@settings(max_examples=300, deadline=None)
@given(operands=dot_operands())
def test_matrix_vector_dot_is_matmul(operands):
    rows, v = operands
    assert_dot_is_matmul(rows.dot(v), rows @ v, rows.size == 1)


def test_one_by_one_product_keeps_a_negative_zero():
    one, zero = np.array([[-1.0]]), np.array([0.0])
    assert one.dot(zero)[0].hex() == "-0x0.0p+0"
    assert (one @ zero)[0].hex() == "0x0.0p+0"
    assert one[0].dot(zero).hex() == "-0x0.0p+0"
    assert (one[0] @ zero).hex() == "0x0.0p+0"


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
def test_quadratic_oracles_are_their_matmul_forms(n, m, seed, scale):
    # with n = 1, A x (and for m = 1 also B y and B'x) multiplies one by one
    rng = np.random.default_rng(seed)
    qs = datasets.make_quadratic_saddle(n, m, 1.0, 0.5, rng)
    x, y = rng.standard_normal(n) * scale, rng.standard_normal(m) * scale
    a, b = qs.a, qs.b
    assert_dot_is_matmul(qs.problem.grad_x(x, y), a @ x + b @ y, n == 1)
    assert_dot_is_matmul(qs.problem.grad_y(x, y), b.T @ x - 0.5 * y, n == 1)


def _matmul_grad_x(rows, weights, x):
    reg = datasets._regularizer_grad_of(10.0, 1e-3)(x)
    sig = datasets._sigmoid_neg(rows @ x)
    return rows.T @ (-sig * weights) / rows.shape[0] + reg


@pytest.mark.parametrize("case", sorted(DRO_CASES))
def test_dro_oracles_are_their_matmul_forms(case):
    inst, _ = _pair(case)
    p, fs = inst.problem, inst.finite_sum
    signed = inst.signed_features
    n, d = DRO_CASES[case][0].n_samples, DRO_CASES[case][0].n_features

    @settings(max_examples=150, deadline=None)
    @given(inputs=oracle_inputs(n, d))
    def check(inputs):
        idx, x, y = inputs
        losses = np.logaddexp(0.0, -(signed @ x))
        assert _bits(p.grad_x(x, y)) == _bits(_matmul_grad_x(signed, y, x))
        assert _bits(fs.batch_grad_x(idx, x, y) + p.grad_h(x)) == _bits(
            _matmul_grad_x(signed[idx], y[idx], x))
        assert _bits(p.grad_y(x, y)) == _bits(losses / n)
        expected = (float(y @ losses) / n + inst.regularizer(x) - inst.g_value(y))
        assert inst.lagrangian(x, y).hex() == expected.hex()

    # every operand here has more than one element: d > 1 and n > 1
    assert d > 1 and n > 1
    check()


# The fused two-point differences of the DRO batch oracles against the two
# batch calls they replace, bit for bit (build_dro docstring)


def _dro_finite_sum(features, labels):
    n, d = features.shape
    return datasets.build_dro(datasets.Dataset(features, labels, n, d)).finite_sum


def assert_same_differences(fs, idx, x, y, x_at, y_at):
    for batch in (fs.batch_grad_x, fs.batch_grad_y):
        expected = batch(idx, x, y) - batch(idx, x_at, y_at)
        assert _bits(batch.difference(idx, x, y, x_at, y_at)) == _bits(expected)


@st.composite
def difference_cases(draw):
    """(fs, idx, x, y, x_at, y_at): a DRO finite sum over n rows of d
    features, a batch of b indices with repeats, and two points as the row
    views of one (2, d + n) array, as the solver passes them; rows and
    points may hold +0.0 and -0.0."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    b = draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, zeros = draw(st.sampled_from(SCALES)), draw(st.booleans())
    features = _with_zeros(rng, rng.standard_normal((n, d)), zeros)
    features[0, 0] = 1.0  # the constants need one nonzero entry
    fs = _dro_finite_sum(features, np.where(rng.random(n) < 0.5, -1, 1))
    joint = _with_zeros(rng, rng.standard_normal((2, d + n)) * scale, zeros)
    return fs, rng.integers(0, n, b), joint[0, :d], joint[0, d:], joint[1, :d], joint[1, d:]


@settings(max_examples=300, deadline=None)
@given(case=difference_cases())
def test_dro_differences_are_the_two_calls(case):
    assert_same_differences(*case)


def test_one_element_differences_are_the_two_calls():
    # d = 1 at a batch of 1, where .dot multiplies one by one and keeps a
    # -0.0 (test_one_by_one_product_keeps_a_negative_zero): every sign of
    # the one row and of the points, zeros of both signs included
    values = (0.0, -0.0, 1.0, -1.0)
    idx = np.array([0])
    for row, label in ((1.0, 1), (1.0, -1)):
        fs = _dro_finite_sum(np.array([[row]]), np.array([label]))
        for x, y, x_at, y_at in itertools.product(values, repeat=4):
            joint = np.array([[x, y], [x_at, y_at]])
            assert_same_differences(fs, idx, joint[0, :1], joint[0, 1:],
                                    joint[1, :1], joint[1, 1:])


def test_a_rows_product_depends_on_its_place():
    # why a large batch gathers its rows even at b >= n (build_dro): the BLAS
    # product of a row can change in its last bits with the row's place in
    # the matrix, so the products of all rows, taken at the batch's indices,
    # are not those of the gathered rows.  Shapes about the benchmark's
    # 1000 x 20, with every residue of n and b mod 8
    rng = np.random.default_rng(0)
    differs = 0
    for n in range(1000, 1008):
        for b in range(n, n + 8):
            signed, x = rng.standard_normal((n, 20)), rng.standard_normal(20)
            idx = rng.integers(0, n, b)
            gathered = signed.take(idx, axis=0).dot(x)
            differs += _bits(signed.dot(x).take(idx)) != _bits(gathered)
    assert differs > 0


# build_dro on synthetic data against the CSR round trip (the dense()
# scatter and the row-length grouped norms), bit for bit

def assert_matches_csr_path(ds, ref_ds, x, y, idx):
    n = ds.n_samples
    inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=1.0 / n**2)
    p, fs = inst.problem, inst.finite_sum
    signed, det, a_s = reference_dro_data(ref_ds, 10.0, 1e-3)
    assert _bits(ds.features) == _bits(ref_ds.dense())
    assert _bits(ds.labels) == _bits(ref_ds.labels)
    assert _bits(inst.signed_features) == _bits(signed)
    assert [[v.hex() for v in astuple(c)] for c in (p.smoothness, fs.as_smoothness)] == (
        [[v.hex() for v in astuple(c)] for c in (det, a_s)])
    assert _bits(p.grad_x(x, y)) == _bits(_matmul_grad_x(signed, y, x))
    assert _bits(p.grad_y(x, y)) == _bits(np.logaddexp(0.0, -(signed @ x)) / n)
    assert _bits(fs.batch_grad_x(idx, x, y) + p.grad_h(x)) == _bits(
        _matmul_grad_x(signed[idx], y[idx], x))
    ref = ReferenceDro(ref_ds, 10.0, 1e-3, 1.0 / n**2)
    assert _bits(fs.batch_grad_y(idx, x, y)) == _bits(ref.batch_grad_y(idx, x, y))


def test_benchmark_instance_matches_csr_path():
    # the 1000 x 20 instance both DRO workloads build
    ds = datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    ref_ds = reference_synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    rng = np.random.default_rng(15)
    for scale in (0.0, 1.0, 30.0):
        x = rng.standard_normal(20) * scale
        y = np.abs(rng.standard_normal(1000))
        assert_matches_csr_path(ds, ref_ds, x, y / y.sum(), rng.integers(0, 1000, 10))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_synthetic_instance_matches_csr_path(n, d, seed, data):
    # n, d >= 2: no product here is of two one-element operands
    ds = datasets.synthetic_logistic_dataset(n, d, np.random.default_rng(seed))
    ref_ds = reference_synthetic_logistic_dataset(n, d, np.random.default_rng(seed))
    idx, x, y = data.draw(oracle_inputs(n, d))
    assert_matches_csr_path(ds, ref_ds, x, y, idx)


@pytest.mark.parametrize("eta2", [None, 1e-4, 1.0])
def test_robust_loss_is_the_lagrangian_at_the_best_response(eta2):
    # the losses are computed once for both, which moves no bit
    ds = datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=eta2)
    rng = np.random.default_rng(5)
    for scale in (0.0, 1.0, 30.0):
        x = rng.standard_normal(20) * scale
        expected = inst.lagrangian(x, inst.best_response_y(x))
        assert inst.robust_loss(x).hex() == expected.hex()


# 0-d float64 coefficients against Python floats, bit for bit
#
# The hot path binds its coefficients as 0-d float64 arrays (see the `sapd`
# module docstring) on the premise that numpy runs the same float64 loop for
# both forms.  These tests pin that premise for every operation it rewrote,
# on values that include +-0.0, subnormals, +-inf and NaN.

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, -(2.0**-1060), 1e308, -1e308,
           np.inf, -np.inf, np.nan]
coefficients = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.0**-1060, 1e308, 0.5, 0.95, 2.0]))


@st.composite
def premise_vectors(draw):
    """float64 vectors of sizes 1-64 and 1000, with the special values among
    the entries (st.floats draws them too)."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(), min_size=1, max_size=64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    return np.where(rng.random(1000) < 0.2, rng.choice(SPECIAL, 1000), finite)


def assert_same(got, expected):
    assert _bits(got) == _bits(expected)


@settings(max_examples=300, deadline=None)
@given(v=premise_vectors(), c=coefficients)
@np.errstate(all="ignore")
def test_zero_d_coefficient_is_the_python_float(v, c):
    c0 = np.array(c)
    assert_same(c0 * v, c * v)
    assert_same(v * c0, v * c)
    assert_same(v / c0, v / c)
    assert_same(c0 + v, c + v)
    assert_same(np.array(1.0) + v, 1.0 + v)
    assert_same(np.array(1.0) - v, 1.0 - v)
    lower, upper = np.array(-1.0), np.array(1.0)
    assert_same(np.minimum(np.maximum(v, lower), upper),
                np.minimum(np.maximum(v, -1.0), 1.0))
    assert_same(np.minimum(np.maximum(v, -abs(c0)), abs(c0)),
                np.minimum(np.maximum(v, -abs(c)), abs(c)))
    assert_same(np.logaddexp(np.array(0.0), v), np.logaddexp(0.0, v))
    assert_same(np.square(v), v**2)


@settings(max_examples=300, deadline=None)
@given(v=premise_vectors(), size=st.integers(1, 2**53))
@np.errstate(all="ignore")
def test_zero_d_divisor_is_the_python_int(v, size):
    # the DRO batch means divide by the batch size
    assert_same(v / np.array(float(size)), v / size)


def assert_same_sum(got, expected, a, b):
    """assert_same for sums a + b, except where a and b are both NaN: there
    both sides are NaN, but which term's sign the sum keeps depends on the
    loop numpy picks for the operands' alignment and aliasing (x86 returns
    the first operand's NaN, and the compiled loops do not fix the operand
    order).  The inner loop never meets this: the guard stops a stage
    before a non-finite iterate reaches the running sums."""
    both = np.isnan(a) & np.isnan(b)
    assert_same(got[~both], expected[~both])
    assert np.isnan(got[both]).all() and np.isnan(expected[both]).all()


@settings(max_examples=300, deadline=None)
@given(v=premise_vectors(), r=coefficients, seed=st.integers(0, 2**32 - 1))
@example(v=np.array([-0.0]), r=0.5, seed=0)
@example(v=np.array([np.inf]), r=-0.0, seed=1)
@example(v=np.array([-np.inf]), r=np.inf, seed=2)
@example(v=np.array([np.nan]), r=0.95, seed=3)
@example(v=np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), r=1.0, seed=4)
@np.errstate(all="ignore")
def test_in_place_ufuncs_are_the_augmented_operators(v, r, seed):
    # the inner loop's running sum acc <- r * acc + v, with v the stacked
    # (x, y) and the split between x and y anywhere, on an accumulator of
    # standard normals and on one of the special values
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal(v.size), rng.choice(SPECIAL, v.size)
    split = int(rng.integers(0, v.size + 1))
    for start in starts:
        expected = start.copy()
        expected *= r
        expected += v
        acc = start.copy()
        np.multiply(acc, np.array(r), acc)
        np.add(acc, v, acc)
        assert_same(acc, expected)
        # rho != 1: the product into a spare, the sums back into the views
        acc, spare = start.copy(), np.empty_like(start)
        np.multiply(acc, np.array(r), spare)
        np.add(spare[:split], v[:split], acc[:split])
        np.add(spare[split:], v[split:], acc[split:])
        assert_same_sum(acc, expected, spare, v)
        # rho = 1: no product, the sums into the views of the spare
        expected = start.copy()
        expected += v
        acc, spare = start.copy(), np.empty_like(start)
        np.add(acc[:split], v[:split], spare[:split])
        np.add(acc[split:], v[split:], spare[split:])
        assert_same_sum(spare, expected, acc, v)


# The premises of replica stacks (sapd module docstring): each stacked
# kernel of the DRO oracles, the simplex prox and the guard gives every
# replica's row the bits of the 1-D kernel on that replica alone.  The
# iterates come in both layouts: as the contiguous (R, d) and (R, n) blocks
# of one flat array, as the solver passes them, and as the row views of one
# (R, d + n) array, as it passed them before.
LAYOUTS = ["blocks", "rows"]


def stacked_pair(joint, reps, d, layout):
    """x and y of R replicas from the R (d + n) values of `joint`, in the
    named layout."""
    if layout == "blocks":
        flat = joint.ravel()
        return flat[:reps * d].reshape(reps, d), flat[reps * d:].reshape(reps, -1)
    wide = joint.reshape(reps, -1)
    return wide[:, :d], wide[:, d:]


@st.composite
def replica_stacks(draw):
    """(signed rows, idx, x, y, w): n signed rows of d features, R batches of
    b indices with repeats, x and y in one of the two layouts, and R weight
    vectors of length b."""
    n, d, reps = draw(st.integers(1, 60)), draw(st.integers(1, 30)), draw(st.integers(1, 6))
    b = draw(st.integers(1, n))
    layout = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, zeros = draw(st.sampled_from(SCALES)), draw(st.booleans())
    signed = _with_zeros(rng, rng.standard_normal((n, d)) * scale, zeros)
    joint = _with_zeros(rng, rng.standard_normal(reps * (d + n)) * scale, zeros)
    w = _with_zeros(rng, rng.standard_normal((reps, b)) * scale, zeros)
    x, y = stacked_pair(joint, reps, d, layout)
    return signed, rng.integers(0, n, (reps, b)), x, y, w


@settings(max_examples=150, deadline=None)
@given(stack=replica_stacks())
def test_stacked_dro_kernels_are_per_row(stack):
    # the two products as np.matvec and np.vecmat over the gathered
    # (R, b, d) rows, the weights y[r].take(idx[r]) as one fancy index, and
    # the y-batch's bins as one bincount over indices offset by n per
    # replica.  A (b, d) block of one element is the one exception of .dot
    # and @ (see test_one_by_one_product_keeps_a_negative_zero): there the
    # products agree once the sign of a zero is dropped
    signed, idx, x, y, w = stack
    reps, n = y.shape
    rows = signed.take(idx, axis=0)
    products = np.matvec(rows, x)
    sums = np.vecmat(w, rows)
    one_by_one = rows.shape[1:] == (1, 1)
    column = np.arange(reps)[:, None]
    weights = y[column, idx]
    bins = np.bincount((idx + column * n).ravel(), weights=w.ravel(),
                       minlength=reps * n).reshape(reps, n)
    for r in range(reps):
        block = signed.take(idx[r], axis=0)
        assert_dot_is_matmul(block.dot(x[r]), products[r], one_by_one)
        assert_dot_is_matmul(block.T.dot(w[r]), sums[r], one_by_one)
        assert _bits(weights[r]) == _bits(y[r].take(idx[r]))
        assert _bits(bins[r]) == _bits(np.bincount(idx[r], weights=w[r], minlength=n))


@settings(max_examples=100, deadline=None)
@given(reps=st.integers(1, 6), size=st.integers(1, 1100), layout=st.sampled_from(LAYOUTS),
       seed=st.integers(0, 2**32 - 1))
@np.errstate(all="ignore")
def test_row_reductions_are_the_1d_ones(reps, size, layout, seed):
    # the stacked all-active check of the simplex prox, on stacks as wide as
    # the benchmark's dual, sums that overflow included; and the stacked
    # guard's one dot, which bounds the dot of every replica's joined (x, y)
    # within the guard's margin
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-300, 300, (reps, 1))
    joint = (rng.standard_normal((reps, size + 3)) * scales).ravel()
    x, v = stacked_pair(joint, reps, 3, layout)
    sums, mins = np.add.reduce(v, axis=1), np.minimum.reduce(v, axis=1)
    total = joint.dot(joint)
    for r in range(reps):
        row = v[r]
        assert_same(sums[r], np.add.reduce(row))
        assert_same(mins[r], np.minimum.reduce(row))
        joined = np.concatenate((x[r], row))
        assert joined.dot(joined) * (1.0 - _STACK_MARGIN) <= total


@pytest.mark.parametrize("case", sorted(DRO_CASES))
def test_dro_stochastic_oracles_take_replica_stacks(case):
    inst, _ = _pair(case)
    p = inst.problem
    n, d = DRO_CASES[case][0].n_samples, DRO_CASES[case][0].n_features
    assert all(map(is_replica_safe, (p.sgrad_x, p.sgrad_y, p.grad_h, p.prox_g)))

    @settings(max_examples=40, deadline=None)
    @given(reps=st.integers(1, 5), size=st.sampled_from([1, 10, n]),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1.0, 300.0]))
    def check(reps, size, seed, scale):
        rng = np.random.default_rng(seed)
        for layout in LAYOUTS:
            joint = rng.standard_normal(reps * (d + n)) * scale
            x, y = stacked_pair(joint, reps, d, layout)
            y[...] = np.abs(y) + 1e-3
            check_layout(x, y, rng.integers(0, n, (reps, size)))

    def check_layout(x, y, idx):
        reps = idx.shape[0]
        got_x, got_y = p.sgrad_x(x, y, idx), p.sgrad_y(x, y, idx)
        for r in range(reps):
            assert _bits(got_x[r]) == _bits(p.sgrad_x(x[r], y[r], idx[r]))
            assert _bits(got_y[r]) == _bits(p.sgrad_y(x[r], y[r], idx[r]))

    check()


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.one_of(all_active, near_boundary(), random_vectors), min_size=1,
                     max_size=5),
       step=st.floats(1e-3, 1e3), eta2=st.floats(1e-6, 1.0))
def test_prox_takes_replica_stacks(rows, step, eta2):
    # rows that pass the all-active check beside rows that take the sorted
    # path, cut to one width
    width = min(len(v) for v in rows)
    v = np.array([row[:width] for row in rows])
    prox = prox_quadratic_over_simplex(eta2, width)
    got = prox(v, step)
    assert not np.shares_memory(got, v)
    for r in range(len(v)):
        assert _bits(got[r]) == _bits(prox(v[r], step))
