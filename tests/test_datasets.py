import gzip
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import make_quadratic_finite_sum, make_scsc_quadratic, shifted_saddle
from reference_kernels import (ReferenceDro, reference_dense, reference_dro_data,
                               reference_pack_rows, reference_row_norms_sq,
                               reference_synthetic_logistic_dataset)
from sapdplus import datasets
from sapdplus.errors import ConfigurationError


@pytest.fixture
def parse_text(tmp_path):
    """parse_libsvm of LIBSVM text written to a file of its own."""
    def parse(text):
        path = tmp_path / f"data{len(list(tmp_path.iterdir()))}.libsvm"
        path.write_text(text)
        return datasets.parse_libsvm(path)

    return parse


class TestLibsvmParser:
    def test_basic(self, parse_text):
        ds = parse_text("+1 1:0.5 3:2.0\n-1 2:1.0\n")
        assert ds.n_samples == 2
        assert ds.n_features == 3
        np.testing.assert_array_equal(ds.labels, [1, -1])
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])

    def test_non_increasing_index(self, parse_text):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_text("1 2:1 1:1\n")

    def test_zero_one_labels(self, parse_text):
        ds = parse_text("1 1:1\n0 1:2\n")
        np.testing.assert_array_equal(ds.labels, [1, -1])

    def test_bad_label(self, parse_text):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_text("+1 1:1\n3 1:2\n")

    def test_malformed_token(self, parse_text):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_text("+1 1:abc\n")

    def test_empty(self, parse_text):
        # the message once named no file
        with pytest.raises(ConfigurationError, match="empty dataset in data file '.*data0"):
            parse_text("\n\n")

    def test_gzip_path(self, tmp_path):
        path = tmp_path / "data.libsvm.gz"
        with gzip.open(path, "wt") as f:
            f.write("+1 1:0.5\n-1 1:1.5\n")
        ds = datasets.parse_libsvm(str(path))
        assert ds.n_samples == 2

    @pytest.mark.parametrize("name", ["run:1.libsvm", "run:1.libsvm.gz"])
    def test_path_with_colon(self, tmp_path, name):
        path = tmp_path / name
        opener = gzip.open if name.endswith(".gz") else open
        with opener(path, "wt") as f:
            f.write("+1 1:0.5\n-1 2:1.5\n-1 1:2.0\n")
        for source in (str(path), path):
            ds = datasets.parse_libsvm(source)
            assert ds.n_samples == 3
            assert ds.n_features == 2

    @pytest.mark.parametrize("name,content,reason", [
        ("missing.libsvm", None, "No such file"),
        ("missing.libsvm.gz", None, "No such file"),
        ("binary.libsvm", b"+1 1:0.5\n\xd0\x00\n", "can't decode byte 0xd0"),
        ("truncated.libsvm.gz", gzip.compress(b"+1 1:0.5\n")[:15], "ended before"),
        ("plain.libsvm.gz", b"+1 1:0.5\n", "Not a gzipped file")])
    def test_unreadable_path_is_named(self, tmp_path, name, content, reason):
        # these once escaped as FileNotFoundError, UnicodeDecodeError or
        # EOFError tracebacks
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"cannot read data file {str(path)!r}: ")
                           + f".*{reason}"):
            datasets.parse_libsvm(str(path))


class TestDroInstance:
    def test_single_sample_gradient(self, parse_text):
        # one sample a = (1), b = +1, x = 0, y = (1): sigmoid(0) = 1/2 and the
        # regularizer gradient vanishes at the origin
        ds = parse_text("+1 1:1.0\n")
        inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3, eta2=1.0)
        gx = inst.problem.grad_x(np.zeros(1), np.ones(1))
        np.testing.assert_allclose(gx, [-0.5], atol=1e-15)

    def test_regularizer_gradient_limits(self, parse_text):
        ds = parse_text("+1 1:1.0\n")
        inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3)
        # what the oracles add
        reg_grad = datasets._regularizer_grad_of(inst.alpha, inst.eta1)
        assert reg_grad(np.zeros(1))[0] == 0.0
        assert abs(reg_grad(np.array([1e6]))[0]) < 1e-12
        # bounded value: eta1 * d as x -> inf
        assert inst.regularizer(np.array([1e9])) <= 1e-3 + 1e-12

    def test_mu_y_arithmetic(self, parse_text):
        ds = parse_text("+1 1:1.0\n" * 4)
        inst = datasets.build_dro(ds, eta2=1.0 / 16.0)
        assert inst.problem.convexity.mu_y == 1.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        ds = datasets.synthetic_logistic_dataset(30, 6, rng)
        inst = datasets.build_dro(ds)
        p = inst.problem
        x = rng.standard_normal(6) * 0.7
        y = np.abs(rng.standard_normal(30))
        y /= y.sum()

        def coupling(x, y):  # Phi; the dual penalty g goes to prox_g
            return float(y @ inst.losses(x)) / 30 + inst.regularizer(x)

        h = 1e-6
        for j in range(6):
            e = np.eye(6)[j] * h
            fd = (coupling(x + e, y) - coupling(x - e, y)) / (2 * h)
            assert abs(fd - p.grad_x(x, y)[j]) <= 1e-5 * max(1, abs(fd))
        for j in range(0, 30, 7):
            e = np.eye(30)[j] * h
            fd = (coupling(x, y + e) - coupling(x, y - e)) / (2 * h)
            assert abs(fd - p.grad_y(x, y)[j]) <= 1e-5 * max(1, abs(fd))

    def test_finite_sum_consistency(self):
        rng = np.random.default_rng(1)
        ds = datasets.synthetic_logistic_dataset(64, 5, rng)
        inst = datasets.build_dro(ds)
        x = rng.standard_normal(5)
        y = np.abs(rng.standard_normal(64))
        y /= y.sum()
        # the regularizer is the problem's shared term grad_h, not part of
        # the batch
        fs = inst.finite_sum
        full_x = fs.batch_grad_x(np.arange(64), x, y) + inst.problem.grad_h(x)
        assert np.max(np.abs(full_x - inst.problem.grad_x(x, y))) <= 1e-12
        full_y = inst.finite_sum.batch_grad_y(np.arange(64), x, y)
        assert np.max(np.abs(full_y - inst.problem.grad_y(x, y))) <= 1e-12

    def test_batch_mean_semantics(self):
        rng = np.random.default_rng(2)
        ds = datasets.synthetic_logistic_dataset(10, 4, rng)
        inst = datasets.build_dro(ds)
        x = rng.standard_normal(4)
        y = np.full(10, 0.1)
        single = [inst.finite_sum.batch_grad_x(np.array([i]), x, y)
                  for i in range(10)]
        pair = inst.finite_sum.batch_grad_x(np.array([2, 7]), x, y)
        np.testing.assert_allclose(pair, 0.5 * (single[2] + single[7]), atol=1e-14)

    def test_component_lipschitz_bounds_hold(self):
        rng = np.random.default_rng(3)
        ds = datasets.synthetic_logistic_dataset(12, 5, rng)
        inst = datasets.build_dro(ds)
        s = inst.finite_sum.as_smoothness
        y = np.abs(rng.standard_normal(12))
        y /= y.sum()
        for i in range(12):
            for _ in range(10):
                x1, x2 = rng.standard_normal((2, 5))
                g1 = inst.finite_sum.batch_grad_x(np.array([i]), x1, y)
                g2 = inst.finite_sum.batch_grad_x(np.array([i]), x2, y)
                assert (np.linalg.norm(g1 - g2)
                        <= s.l_xx * np.linalg.norm(x1 - x2) + 1e-9)
                h1 = inst.finite_sum.batch_grad_y(np.array([i]), x1, y)
                h2 = inst.finite_sum.batch_grad_y(np.array([i]), x2, y)
                assert (np.linalg.norm(h1 - h2)
                        <= s.l_yx * np.linalg.norm(x1 - x2) + 1e-9)

    def test_zero_feature_rejected(self):
        ds = datasets.Dataset(features=np.zeros((0, 0)),
                              labels=np.array([], dtype=np.int64),
                              n_samples=0, n_features=0)
        with pytest.raises(ConfigurationError):
            datasets.build_dro(ds)


@settings(max_examples=200, deadline=None)
@given(idx=st.lists(st.integers(0, 4), min_size=1, max_size=40),
       data=st.data())
def test_bincount_adds_repeats_like_add_at(idx, data):
    # np.bincount in batch_grad_y must add repeated indices in the same order
    # as the np.add.at it replaced, so the sums match bit for bit
    weights = np.array(data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=len(idx), max_size=len(idx))))
    idx = np.array(idx)
    expected = np.zeros(7)
    np.add.at(expected, idx, weights)
    got = np.bincount(idx, weights=weights, minlength=7)
    assert got.tobytes() == expected.tobytes()


def test_dro_batch_grad_y_matches_add_at():
    ds = datasets.synthetic_logistic_dataset(30, 4, np.random.default_rng(8))
    inst = datasets.build_dro(ds)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4)
    y = np.full(30, 1.0 / 30)
    for size in (1, 10, 100):  # size 100 of 30 components repeats indices
        idx = inst.finite_sum.sample(rng, size)
        z = ds.labels[idx] * (ds.features[idx] @ x)
        expected = np.zeros(30)
        np.add.at(expected, idx, np.logaddexp(0.0, -z))
        got = inst.finite_sum.batch_grad_y(idx, x, y)
        assert got.tobytes() == (expected / idx.size).tobytes()


def assert_close_grad_x(got, expected):
    """The batch x-gradient is one matrix product, not the reference's tree
    mean: equal to rounding, with the tolerance of the deterministic grad_x."""
    np.testing.assert_allclose(got, expected, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(expected))))


class TestDroBatchIndexing:
    """The batch oracles gather rows with take; they keep the results and
    errors of indexing with signed[idx], the x-gradient (batch plus the
    shared grad_h) to rounding."""

    ds = datasets.synthetic_logistic_dataset(30, 4, np.random.default_rng(13))
    ref_ds = reference_synthetic_logistic_dataset(30, 4, np.random.default_rng(13))

    def _pair(self):
        inst = datasets.build_dro(self.ds)
        ref = ReferenceDro(self.ref_ds, 10.0, 1e-3, 1.0 / 30**2)
        rng = np.random.default_rng(14)
        y = np.abs(rng.standard_normal(30))
        return (inst.finite_sum, inst.problem.grad_h, ref, rng.standard_normal(4),
                y / y.sum())

    @pytest.mark.parametrize("idx", [[3], [0, 29, 7], [5, 5, 5, 2, 5],
                                     np.array([1, 1, 28, 0, 28])])
    def test_lists_and_repeats(self, idx):
        fs, grad_h, ref, x, y = self._pair()
        assert_close_grad_x(fs.batch_grad_x(idx, x, y) + grad_h(x),
                            ref.batch_grad_x(idx, x, y))
        assert fs.batch_grad_y(idx, x, y).tobytes() == ref.batch_grad_y(idx, x, y).tobytes()

    @pytest.mark.parametrize("idx", [[-1], [-30, 4, -1, -1], np.array([2, -3, 27])])
    def test_negative_indices(self, idx):
        fs, grad_h, ref, x, y = self._pair()
        assert_close_grad_x(fs.batch_grad_x(idx, x, y) + grad_h(x),
                            ref.batch_grad_x(idx, x, y))
        # bincount rejects negative indices in both
        with pytest.raises(ValueError):
            ref.batch_grad_y(idx, x, y)
        with pytest.raises(ValueError):
            fs.batch_grad_y(idx, x, y)

    @pytest.mark.parametrize("idx", [[30], [0, 31], [-31], np.array([4, 99])])
    def test_out_of_range_raises_index_error(self, idx):
        fs, grad_h, ref, x, y = self._pair()
        for oracle in (fs.batch_grad_x, fs.batch_grad_y, ref.batch_grad_x):
            with pytest.raises(IndexError):
                oracle(idx, x, y)


class TestQuadraticFixture:
    def test_scalar_elimination(self):
        # n = m = 1, A = -gamma, B = c: phi(x) = (c^2/mu_y - gamma) x^2 / 2
        qs = make_scsc_quadratic([[-1.0]], [[2.0]], mu_y=0.5, gamma=1.0)
        x = np.array([1.3])
        expected = 0.5 * (4.0 / 0.5 - 1.0) * 1.3**2
        assert abs(qs.phi(x) - expected) < 1e-12

    def test_pinned_eigenvalue(self):
        for seed in range(5):
            qs = datasets.make_quadratic_saddle(7, 4, 1.3, 0.9,
                                                np.random.default_rng(seed))
            lam_min = float(np.min(np.linalg.eigvalsh(qs.a)))
            assert abs(lam_min + 1.3) < 1e-10

    def test_shifted_saddle_first_order_conditions(self):
        rng = np.random.default_rng(1)
        qs = datasets.make_quadratic_saddle(5, 4, 1.0, 0.7, rng)
        center = rng.standard_normal(5)
        xs, ys = shifted_saddle(qs, center, 0.8)
        coef = 0.8 + qs.gamma
        lhs = (qs.a + coef * np.eye(5) + qs.b @ qs.b.T / qs.mu_y) @ xs
        np.testing.assert_allclose(lhs, coef * center, atol=1e-10)
        np.testing.assert_allclose(qs.b.T @ xs - qs.mu_y * ys, np.zeros(4),
                                   atol=1e-10)

    def test_phi_convex(self):
        qs = datasets.make_quadratic_saddle(6, 4, 1.0, 0.5,
                                            np.random.default_rng(2))
        assert float(np.min(np.linalg.eigvalsh(qs.h))) > 0

    def test_closed_form_ties_to_certificate(self):
        from sapdplus.evaluation import moreau_stationarity

        rng = np.random.default_rng(3)
        qs = datasets.make_quadratic_saddle(5, 3, 1.0, 1.0, rng)
        x = rng.standard_normal(5)
        est = moreau_stationarity(qs.problem, x, tol=1e-11)
        np.testing.assert_allclose(est.prox_point, qs.moreau_prox(x, est.lam),
                                   atol=1e-7)

    def test_single_draw_variance_formula(self):
        rng = np.random.default_rng(4)
        qfs = make_quadratic_finite_sum(15, 3, 2, 1.0, 1.0, rng)
        x, y = rng.standard_normal(3), rng.standard_normal(2)
        full = qfs.spec.batch_grad_x(np.arange(15), x, y)
        devs = [qfs.spec.batch_grad_x(np.array([i]), x, y) - full
                for i in range(15)]
        empirical = float(np.mean([np.sum(d**2) for d in devs]))
        assert abs(empirical - qfs.single_draw_variance_x(x, y)) < 1e-10


@st.composite
def ragged_rows(draw):
    """(dense dataset, its CSR form): rows of k of 300 columns, empty rows
    and rows longer than numpy's 128-element pairwise block."""
    lengths = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(4, 299)),
                            min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    csr = reference_pack_rows(
        np.ones(len(lengths), dtype=np.int64),
        [(np.sort(rng.choice(300, k, replace=False)), rng.standard_normal(k) * scale)
         for k in lengths], 300)
    ds = datasets.Dataset(features=reference_dense(csr), labels=csr.labels,
                          n_samples=csr.n_samples, n_features=300)
    return ds, csr


def dense_row_norms_sq(ds):
    """The frozen per-row loop, over every entry of each dense row."""
    n, d = ds.features.shape
    every = reference_pack_rows(ds.labels, [(np.arange(d), row) for row in ds.features], d)
    return reference_row_norms_sq(every)


def dro_constants(sq, n, alpha=10.0, eta1=1e-3):
    """(deterministic, almost-sure) constants of build_dro from row norms."""
    l_xx = float(sq.max()) / 4.0 + 2.0 * eta1 * alpha
    coupling, max_norm = math.sqrt(sq.sum()) / n, math.sqrt(float(sq.max()))
    return (datasets.SmoothnessConstants(l_xx, coupling, coupling, 0.0),
            datasets.SmoothnessConstants(l_xx, max_norm, max_norm, 0.0))


def constant_bits(*constants):
    return [[v.hex() for v in astuple(c)] for c in constants]


class TestRowNormsSq:
    """build_dro's constants against the frozen per-row loop."""

    def test_matches_row_loop_on_the_benchmark_data(self):
        # the synthetic rows are dense, so the per-row loop over the stored
        # entries of the old CSR form sums exactly what build_dro sums
        ref = reference_synthetic_logistic_dataset(1000, 20, np.random.default_rng(7))
        inst = datasets.build_dro(
            datasets.synthetic_logistic_dataset(1000, 20, np.random.default_rng(7)))
        expected = dro_constants(reference_row_norms_sq(ref), 1000)
        assert constant_bits(inst.problem.smoothness, inst.finite_sum.as_smoothness) == (
            constant_bits(*expected))

    @settings(max_examples=50, deadline=None)
    @given(data=ragged_rows())
    def test_build_dro_constants(self, data):
        # each row norm sums the dense row, its zeros included
        ds, csr = data
        assume(np.any(ds.features))  # else a zero coupling constant raises
        inst = datasets.build_dro(ds, alpha=10.0, eta1=1e-3)
        det, a_s = dro_constants(dense_row_norms_sq(ds), ds.n_samples)
        assert constant_bits(inst.problem.smoothness, inst.finite_sum.as_smoothness) == (
            constant_bits(det, a_s))
        # against the sum of the stored entries alone, within the bound
        # of two summation orders of the same nonnegative terms
        _, ref_det, ref_as = reference_dro_data(csr, 10.0, 1e-3)
        assert_within_summation_bound(
            (inst.problem.smoothness, inst.finite_sum.as_smoothness),
            (ref_det, ref_as), ds.n_samples, ds.n_features)


def assert_within_summation_bound(got, expected, n, d):
    """Each field within 2 (d + n) ulp(1) relative of the CSR reference.

    A row norm is a sum of the same rounded squares in the package and in
    the reference, in two orders.  Any order of d nonnegative terms is
    within gamma_{d-1} ~ (d - 1) u of the exact sum (u = ulp(1)/2; a zero
    adds exactly), so the two are within about (d - 1) ulp(1) of each
    other, relative.  The sum over n rows adds about n - 1 ulp(1), the
    square roots and the last roundings about 2 more; the factor 2 covers
    the second-order terms.  Measured on random rows of 3-200 entries in
    300 features: at most 3 ulp.
    """
    tol = 2.0 * (d + n) * math.ulp(1.0)
    for g, e in zip(got, expected):
        for gv, ev in zip(astuple(g), astuple(e)):
            assert abs(gv - ev) <= tol * abs(ev), (gv, ev)


def test_synthetic_dataset_shapes():
    ds = datasets.synthetic_logistic_dataset(40, 6, np.random.default_rng(0))
    assert ds.n_samples == 40 and ds.n_features == 6
    assert set(np.unique(ds.labels)) <= {-1, 1}
    assert ds.features.shape == (40, 6) and ds.features.dtype == np.float64
    np.testing.assert_allclose(np.linalg.norm(ds.features, axis=1), np.ones(40),
                               atol=1e-12)


@pytest.mark.parametrize("n,d", [(0, 6), (-5, 6), (40, 0)])
def test_synthetic_dataset_needs_samples_and_features(n, d):
    # n = -5 once ended in numpy's "negative dimensions" ValueError
    with pytest.raises(ConfigurationError, match=f"not n = {n} and d = {d}"):
        datasets.synthetic_logistic_dataset(n, d, np.random.default_rng(0))


# any float64 bit pattern: both zeros, both infinities and NaNs with payloads
any_float = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array([bits], dtype=np.uint64).view(np.float64)[0])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(any_float, st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0])), min_size=1, max_size=5),
    step=st.floats(1e-3, 1e3))
def test_bilinear_prox_g_is_clip_bit_for_bit(values, step):
    v = np.array(values, dtype=float)
    got = datasets.make_bilinear_box_toy().problem.prox_g(v, step)
    assert (got.dtype, got.shape, got.tobytes()) == (
        v.dtype, v.shape, np.clip(v, -1.0, 1.0).tobytes())


def test_dro_prox_g_keeps_the_divisor_of_its_last_step():
    # the DRO dual prox keeps the divisor of the last step it saw; steps that
    # alternate must each give the projection of v divided by the Python
    # float 1 + eta2 n^2 step, bit for bit, and a step that is not
    # positive must still be refused
    from sapdplus.prox import project_simplex

    ds = datasets.synthetic_logistic_dataset(50, 4, np.random.default_rng(2))
    inst = datasets.build_dro(ds)
    n, eta2 = inst.n_samples, inst.eta2
    rng = np.random.default_rng(3)
    for step in (0.3, 0.05, 0.3, 0.3, 0.05, 1.7, 0.3):
        v = rng.standard_normal(n) / n
        got = inst.problem.prox_g(v, step)
        want = project_simplex(v / (1.0 + eta2 * n**2 * step))
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    with pytest.raises(ConfigurationError):
        inst.problem.prox_g(v, 0.0)
