"""The DRO kernels against frozen reference copies (tests/reference_kernels.py).

The simplex projection, the tree mean, `SparseDataset.dense` and the DRO
batch and deterministic oracles must match the references bit for bit.
Two outputs are allowed to move, within a stated tolerance: the
deterministic `grad_x` (one matrix-vector product in place of an n x d
matrix) and `robust_loss` (the dual best response in closed form in place
of 50 prox-gradient steps).
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernels import (ReferenceDro, reference_dense,
                               reference_pairwise_mean,
                               reference_project_simplex)
from sapdplus import datasets
from sapdplus.datasets import _pairwise_mean
from sapdplus.prox import project_simplex

# the test u_j + (1 - sum_{i<=j} u_i)/j > 0 holds at indices 0, 1, 2, 5 of
# the sorted vector: counting them would pick index 3, not 5
NON_MONOTONE = np.array([
    -1.0, 0.1, 0.1, 0.4, -1.1, 0.3, 0.5, 0.2, -1.0, 0.8, 0.8, 0.9, 1.2, 0.4,
    -0.4, 0.3, -0.6, 0.2, -0.3, 1.3, -1.5, -1.3, 0.1, 0.1, 0.5, 0.2, -0.6, 0.8,
    0.4, -0.7, -1.7, 0.6, -0.7, -0.6])


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


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


class TestProjectSimplex:
    @settings(max_examples=300, deadline=None)
    @given(v=st.one_of(random_vectors, rounded_ties, all_active))
    def test_matches_reference(self, v):
        assert _bits(project_simplex(v)) == _bits(reference_project_simplex(v))

    @settings(max_examples=100, deadline=None)
    @given(v=all_active)
    def test_all_active_inputs_take_fast_path(self, v):
        assert np.all(project_simplex(v) > 0)

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
    @given(v=st.one_of(random_vectors, rounded_ties, all_active))
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


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 4), data=st.data())
def test_pairwise_mean_matches_reference(rows, cols, data):
    values = data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                                min_size=rows * cols, max_size=rows * cols))
    a = np.array(values).reshape(rows, cols)
    assert _bits(_pairwise_mean(a.copy())) == _bits(reference_pairwise_mean(a.copy()))


@st.composite
def ragged_datasets(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    indptr, indices, values = [0], [], []
    for _ in range(n):
        cols = sorted(draw(st.sets(st.integers(0, d - 1))))
        indices += cols
        values += draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                                min_size=len(cols), max_size=len(cols)))
        indptr.append(len(indices))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return datasets.SparseDataset(
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=float), labels=np.array(labels, dtype=np.int64),
        n_samples=n, n_features=d)


@settings(max_examples=200, deadline=None)
@given(ds=ragged_datasets())
def test_dense_matches_row_loop(ds):
    assert _bits(ds.dense()) == _bits(reference_dense(ds))


def _ragged_libsvm():
    rng = np.random.default_rng(11)
    lines = []
    for i in range(25):
        cols = np.flatnonzero(rng.random(9) < 0.4)
        feats = " ".join(f"{j + 1}:{rng.standard_normal():.17g}" for j in cols)
        lines.append(f"{'+1' if rng.random() < 0.5 else '-1'} {feats}".rstrip())
    return datasets.parse_libsvm("\n".join(lines) + "\n")


DRO_CASES = {
    "synthetic": datasets.synthetic_logistic_dataset(40, 6, np.random.default_rng(0)),
    "ragged": _ragged_libsvm(),
}


def _pair(case):
    ds = DRO_CASES[case]
    inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=1.0 / ds.n_samples**2)
    return inst, ReferenceDro(ds, 10.0, 1e-3, 1.0 / ds.n_samples**2)


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
    n, d = DRO_CASES[case].n_samples, DRO_CASES[case].n_features

    @settings(max_examples=150, deadline=None)
    @given(inputs=oracle_inputs(n, d))
    def check(inputs):
        idx, x, y = inputs
        assert _bits(fs.batch_grad_x(idx, x, y)) == _bits(ref.batch_grad_x(idx, x, y))
        assert _bits(fs.batch_grad_y(idx, x, y)) == _bits(ref.batch_grad_y(idx, x, y))
        assert _bits(p.grad_y(x, y)) == _bits(ref.grad_y(x, y))
        assert _bits(inst.losses(x)) == _bits(ref.losses(x))
        assert p.value(x, y).hex() == ref.value(x, y).hex()
        # matrix-free: one product with the signed rows, not an n x d matrix
        expected = ref.grad_x(x, y)
        np.testing.assert_allclose(p.grad_x(x, y), expected, rtol=1e-12,
                                   atol=1e-12 * float(np.max(np.abs(expected))))

    check()


def test_sgrad_oracles_match_reference():
    inst, ref = _pair("synthetic")
    p, fs = inst.problem, inst.finite_sum
    x = np.random.default_rng(1).standard_normal(6)
    y = np.full(40, 1.0 / 40)
    for seed in range(20):
        idx = fs.sample(np.random.default_rng(seed), p.oracle_batch)
        gx = p.sgrad_x(x, y, np.random.default_rng(seed))
        gy = p.sgrad_y(x, y, np.random.default_rng(seed))
        assert _bits(gx) == _bits(ref.batch_grad_x(idx, x, y))
        assert _bits(gy) == _bits(ref.batch_grad_y(idx, x, y))


@pytest.mark.parametrize("eta2", [None, 1e-4, 1.0])
@pytest.mark.parametrize("scale", [0.0, 1.0, 30.0])
def test_robust_loss_matches_fifty_step_dual(eta2, scale):
    ds = datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
    eta2 = 1.0 / 1000**2 if eta2 is None else eta2
    inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=eta2)
    ref = ReferenceDro(ds, 10.0, 1e-3, eta2)
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
