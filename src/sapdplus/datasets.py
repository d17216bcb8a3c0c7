"""Data ingestion and problem builders.

LIBSVM file parsing into dense rows, the distributionally-robust logistic
instance over the simplex, and the two synthetic instances whose Moreau
stationarity has a closed form: a weakly convex-strongly concave quadratic
and a bilinear box toy.  Datasets are dense from the parse (or the
generator) on; the DRO oracles are matrix-vector products with the dense
signed feature rows, all of them or the rows a batch gathers.
"""

import gzip
import io
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import prox
from .errors import ConfigurationError
from .problem import (ConvexityModuli, FiniteSumSpec, NoiseLevels, ProblemSpec,
                      SmoothnessConstants, replica_safe)


@dataclass
class Dataset:
    """Dense feature rows with +-1 labels."""

    features: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray  # (n_samples,) int64, each +-1
    n_samples: int
    n_features: int


def _parse_label(tok, lineno):
    try:
        val = float(tok)
    except ValueError:
        raise ConfigurationError(f"line {lineno}: non-numeric label {tok!r}") from None
    if val in (1.0, +1.0):
        return 1
    if val in (-1.0, 0.0):
        return -1
    raise ConfigurationError(f"line {lineno}: label {tok!r} not in {{-1,0,+1}}")


def parse_libsvm(path) -> Dataset:
    """Parse a LIBSVM file ("label idx:val idx:val ...", 1-based indices)
    into dense rows; d is the largest index present.

    A path ending in .gz is read through gzip; one that cannot be read
    raises ConfigurationError naming it.  Labels {0,1} map to {-1,+1}.
    Malformed lines raise with their line number; indices must strictly
    increase within a row.  The entries are scattered into a zero (n, d)
    array once, after the whole file is parsed.
    """
    s = str(path)
    opener = gzip.open if s.endswith(".gz") else open
    try:
        with opener(s, "rt") as f:
            text = f.read()
    except (OSError, EOFError, UnicodeDecodeError) as err:
        # missing or unreadable, a truncated gzip, or undecodable text
        raise ConfigurationError(
            f"cannot read data file {s!r}: {getattr(err, 'strerror', None) or err}"
        ) from None

    rows, indices, values, labels = [], [], [], []
    max_idx = -1
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        labels.append(_parse_label(toks[0], lineno))
        prev = -1
        for tok in toks[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s) - 1
                val = float(val_s)
            except ValueError:
                raise ConfigurationError(
                    f"line {lineno}: malformed feature token {tok!r}"
                ) from None
            if idx < 0:
                raise ConfigurationError(f"line {lineno}: index must be >= 1")
            if idx <= prev:
                raise ConfigurationError(
                    f"line {lineno}: non-increasing index {idx + 1}"
                )
            prev = idx
            rows.append(len(labels) - 1)
            indices.append(idx)
            values.append(val)
            max_idx = max(max_idx, idx)
    if not labels:
        raise ConfigurationError(f"empty dataset in data file {s!r}")
    d = max_idx + 1
    features = np.zeros((len(labels), d))
    features[rows, indices] = values
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.int64),
                   n_samples=len(labels), n_features=d)


def synthetic_logistic_dataset(n: int, d: int, rng) -> Dataset:
    """Dense synthetic binary-classification rows.

    Features are standard normal, row-normalized to unit norm; labels come
    from a random ground-truth logistic model.
    """
    if n < 1 or d < 1:
        raise ConfigurationError(f"synthetic dataset needs n >= 1 samples and d >= 1 "
                                 f"features, not n = {n} and d = {d}")
    a = rng.standard_normal((n, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    probs = 1.0 / (1.0 + np.exp(-3.0 * (a @ w)))
    labels = np.where(rng.random(n) < probs, 1, -1)
    return Dataset(features=a, labels=labels, n_samples=n, n_features=d)


def _constant(value):
    """A read-only 0-d float64 coefficient (see the sapd module docstring)."""
    c = np.array(value, dtype=float)
    c.flags.writeable = False
    return c


# 0-d coefficients of the oracles below, built once at import
_ZERO, _HALF, _ONE, _MINUS_ONE = (_constant(0.0), _constant(0.5), _constant(1.0),
                                  _constant(-1.0))


# ufuncs the DRO kernels call directly: a direct call skips the operator's
# dispatch (see the sapd module docstring)
_multiply, _subtract, _divide, _negative = np.multiply, np.subtract, np.divide, np.negative


def _sigmoid_neg(z):
    """sigmoid(-z) = 1/(1+e^z), overflow-safe for any z."""
    return _multiply(_HALF, _subtract(_ONE, np.tanh(_multiply(_HALF, z))))


def _logistic_losses(signed, x):
    """log(1 + exp(-b_i a_i'x)) for every row b_i a_i of ``signed``."""
    return np.logaddexp(_ZERO, -signed.dot(x))


def _regularizer_grad_of(alpha, eta1):
    """x -> the gradient of eta1 * sum_j alpha x_j^2/(1 + alpha x_j^2),
    eta1 * 2 alpha x / (1 + alpha x^2)^2, with its coefficients bound once.

    np.square(v) computes v**2 bit for bit, without the power's exponent
    conversion.
    """
    # 0-d coefficients; scale is the left-to-right product that
    # eta1 * 2.0 * alpha * x forms before it multiplies x
    alpha_c, scale = _constant(alpha), _constant(eta1 * 2.0 * alpha)

    def grad(x):
        return scale * x / np.square(_ONE + alpha_c * np.square(x))

    # elementwise, so a replica stack is its rows' gradients
    return replica_safe(grad)


@dataclass
class DroInstance:
    """Robust logistic regression over the simplex.

    min_x max_{y in simplex}  (1/n) sum_i y_i * log(1+exp(-b_i a_i' x))
                              + eta1 * sum_j alpha x_j^2/(1+alpha x_j^2)
                              - (eta2/2) ||n y - 1||^2

    The smooth nonconvex regularizer is folded into the coupling (so
    prox_f is the identity); the dual quadratic plus the simplex constraint
    form prox_g.  dual dimension = n_samples.  ``signed_features`` holds the
    rows b_i a_i; the labels are +-1, so every product with them is exact.
    """

    n_samples: int
    alpha: float
    eta1: float
    eta2: float
    problem: ProblemSpec = field(repr=False)
    finite_sum: FiniteSumSpec = field(repr=False)
    signed_features: np.ndarray = field(repr=False)

    def losses(self, x):
        return _logistic_losses(self.signed_features, x)

    def regularizer(self, x):
        ax2 = self.alpha * x**2
        return self.eta1 * float(np.sum(ax2 / (1.0 + ax2)))

    def g_value(self, y):
        return 0.5 * self.eta2 * float(np.sum((self.n_samples * y - 1.0) ** 2))

    def lagrangian(self, x, y, *, losses=None):
        """The objective at (x, y); `losses`, if given, is losses(x)."""
        if losses is None:
            losses = self.losses(x)
        return (float(y.dot(losses)) / self.n_samples + self.regularizer(x)
                - self.g_value(y))

    def best_response_y(self, x, *, losses=None):
        """argmax_y of the dual at x, in closed form; `losses`, if given, is
        losses(x).

        The dual objective (1/n) y'l(x) - (eta2/2)||n y - 1||^2 has Hessian
        -eta2 n^2 I, so its maximizer over the simplex is the projection of
        its unconstrained maximizer 1/n + l(x)/(eta2 n^3).  A shift by a
        multiple of the ones vector does not move a projection onto the
        simplex, so the 1/n is dropped; that keeps the sums in the
        projection smaller and its rounding error with them.
        """
        if losses is None:
            losses = self.losses(x)
        n = self.n_samples
        return prox.project_simplex(losses / (self.eta2 * n**3))

    def robust_loss(self, x):
        """Primal robust loss at x: the Lagrangian at the dual best response,
        with the n losses at x computed once for both."""
        losses = self.losses(x)
        return self.lagrangian(x, self.best_response_y(x, losses=losses),
                               losses=losses)


def build_dro(ds: Dataset, alpha: float = 10.0, eta1: float = 1e-3,
              eta2: Optional[float] = None, sgrad_batch: int = 1) -> DroInstance:
    """Assemble robust-logistic oracles and conservative analytic constants.

    Constants: the coupling (1/n) sum y_i l_i(x) has deterministic bounds
    l_xx <= max_i ||a_i||^2/4 (weights sum to 1, 1/n folded in) and
    l_yx = l_xy <= (1/n) sqrt(sum_i ||a_i||^2); the per-component
    almost-sure bounds replace those with max_i||a_i||^2/4 and max_i||a_i||.
    The folded regularizer contributes curvature at most 2*eta1*alpha, which
    is also the weak-convexity modulus gamma.  mu_y = eta2*n^2 via g.
    Each ||a_i||^2 is np.sum over the dense row, zeros included, so on a
    sparse row it can differ in its last bits from a sum over the row's
    nonzero entries alone: the terms fall into numpy's pairwise partial
    sums differently.

    The oracles close over the signed feature rows and the scalars, not over
    the instance, so an instance is freed as soon as it is unreachable.
    The regularizer gradient is the problem's grad_h, shared by the finite
    sum's components; batch_grad_x is the mean of the loss terms alone.
    grad_x, sgrad_x and batch_grad_x share one helper, two matrix-vector products
    over the rows (all of them, or the batch's gathered in order), and
    grad_x and sgrad_x add grad_h to it, so a batch of every index in order
    plus grad_h gives grad_x bit for bit; against a row-by-row sum the BLAS
    product agrees to rounding, not in every bit.
    Each sgrad_x/sgrad_y call takes sgrad_batch component indices, drawn
    uniformly with replacement by fs.sample.
    sgrad_x and sgrad_y are replica_safe (problem module docstring): on a
    stack they gather every replica's rows with one take, run each
    replica's two products through np.matvec and np.vecmat (numpy 2.2),
    which call the BLAS routine of a per-row .dot and .T.dot on its (b, d)
    block (on the CLI's (4, 10, 20) rows np.matvec took 1.2 us against 2.9
    us for the same products through np.matmul), and add the
    y-batches with one bincount over indices offset by n per replica, so
    that each replica's bins sum its own losses in batch order
    (tests/test_kernel_identity.py holds these premises).  The stacked
    sgrad_y then divides only the bins its batches touched, at most R b
    of the R n, by the batch size: an untouched bin stays +0.0, which is
    what 0.0 / b gives (at R = 4, n = 1000 and b = 10, a take, divide and
    put of the 40 touched bins took 1.6 us against 3.5 us for a divide of
    all 4,000).  The exception is that of .dot and @, which np.matvec and
    np.vecmat share: a block of one element (d = 1 at a batch of 1)
    returns +0.0 for a -0.0 product, which can reach an x-gradient only at
    an x entry of exactly -0.0; no update makes one from a start without.

    batch_grad_x and batch_grad_y carry fused two-point differences
    (FiniteSumSpec): one gather of the batch's rows, a .dot of its own for
    each point and product, and the sigmoid or logaddexp on the (2, b)
    stack of the products.  One stacked product (a matrix-matrix BLAS call)
    would not give each point's bits.  The x-difference weighs by sig, not
    -sig: negating every term of a .dot negates the product, and (-P) - (-Q)
    is Q - P, so the negations cancel into the order of the subtraction.  A
    large batch gathers its rows too, even at b >= n: the BLAS product of a
    row depends on the row's place in the matrix, so signed.dot(x).take(idx)
    is not signed.take(idx, axis=0).dot(x) bit for bit.
    tests/test_kernel_identity.py holds both differences to the two calls,
    signed zeros included, and shows the place dependence.
    """
    if ds.n_samples < 1 or ds.n_features < 1:
        raise ConfigurationError("dataset must have samples and features")
    n = ds.n_samples
    eta2 = 1.0 / n**2 if eta2 is None else eta2
    signed = ds.labels[:, None] * ds.features
    row_norms_sq = np.sum(np.square(signed), axis=1)
    # a Python float, so the constants and the prox steps derived from them
    # are Python floats too
    max_sq = float(row_norms_sq.max())
    max_norm = math.sqrt(max_sq)
    reg_curv = 2.0 * eta1 * alpha
    gamma = reg_curv
    mu_y = eta2 * n**2
    coupling_det = math.sqrt(row_norms_sq.sum()) / n
    det_constants = SmoothnessConstants(
        l_xx=max_sq / 4.0 + reg_curv,
        l_xy=coupling_det, l_yx=coupling_det, l_yy=0.0,
    )
    as_constants = SmoothnessConstants(
        l_xx=max_sq / 4.0 + reg_curv,
        l_xy=max_norm, l_yx=max_norm, l_yy=0.0,
    )

    # batch size -> its 0-d divisor, built once per size
    divisors = {}

    def mean_of(total, size):
        # total / size, as the Python int size would divide it
        divisor = divisors.get(size)
        if divisor is None:
            divisor = divisors[size] = _constant(size)
        return _divide(total, divisor)

    def mean_loss_grad_x(rows, weights, x):
        # mean of the component gradients w_i * grad l_i(x) over the signed
        # rows, as two matrix-vector products
        sig = _sigmoid_neg(rows.dot(x))
        return mean_of(rows.T.dot(-sig * weights), rows.shape[0])

    grad_h = _regularizer_grad_of(alpha, eta1)

    def grad_x(x, y):
        return mean_loss_grad_x(signed, y, x) + grad_h(x)

    def grad_y(x, y):
        return mean_of(_logistic_losses(signed, x), n)

    def batch_grad_x(idx, x, y):
        # take gathers rows as signed[idx] does, with less overhead
        return mean_loss_grad_x(signed.take(idx, axis=0), y.take(idx), x)

    def batch_grad_y(idx, x, y):
        idx = np.asarray(idx)
        # bincount adds repeated indices in batch order, as np.add.at does
        losses = _logistic_losses(signed.take(idx, axis=0), x)
        return mean_of(np.bincount(idx, weights=losses, minlength=n), idx.size)

    def paired_products(rows, x, x_at):
        # rows.dot(x) and rows.dot(x_at) as the rows of one (2, b) array
        products = np.empty((2, rows.shape[0]))
        rows.dot(x, out=products[0])
        rows.dot(x_at, out=products[1])
        return products

    def difference_x(idx, x, y, x_at, y_at):
        # batch_grad_x(idx, x, y) - batch_grad_x(idx, x_at, y_at), as
        # mean(sig * w) at (x_at, y_at) minus that at (x, y)
        rows = signed.take(idx, axis=0)
        size = rows.shape[0]
        sig = _sigmoid_neg(paired_products(rows, x, x_at))
        columns = rows.T
        return _subtract(mean_of(columns.dot(_multiply(sig[1], y_at.take(idx))), size),
                         mean_of(columns.dot(_multiply(sig[0], y.take(idx))), size))

    def difference_y(idx, x, y, x_at, y_at):
        # batch_grad_y(idx, x, y) - batch_grad_y(idx, x_at, y_at)
        idx = np.asarray(idx)
        products = paired_products(signed.take(idx, axis=0), x, x_at)
        losses = np.logaddexp(_ZERO, _negative(products))
        return _subtract(mean_of(np.bincount(idx, losses[0], n), idx.size),
                         mean_of(np.bincount(idx, losses[1], n), idx.size))

    batch_grad_x.difference = difference_x
    batch_grad_y.difference = difference_y

    fs = FiniteSumSpec(n_comp=n, batch_grad_x=batch_grad_x,
                       batch_grad_y=batch_grad_y, as_smoothness=as_constants)

    # replica count R -> (the column 0..R-1, the bin offsets 0, n, .., (R-1) n)
    stack_index = {}

    def index_of(reps):
        found = stack_index.get(reps)
        if found is None:
            column = np.arange(reps)[:, None]
            found = stack_index[reps] = (column, column * n)
        return found

    def stacked_products(idx, x):
        # the gathered (R, b, d) rows and, per replica, rows.dot(x)
        rows = signed.take(idx, axis=0)
        return rows, np.matvec(rows, x)

    @replica_safe
    def sgrad_x(x, y, idx):
        if x.ndim == 1:
            return batch_grad_x(idx, x, y) + grad_h(x)
        rows, products = stacked_products(idx, x)
        column, _ = index_of(idx.shape[0])
        weights = y[column, idx]
        coef = -_sigmoid_neg(products) * weights
        total = np.vecmat(coef, rows)
        return mean_of(total, idx.shape[1]) + grad_h(x)

    @replica_safe
    def sgrad_y(x, y, idx):
        if x.ndim == 1:
            return batch_grad_y(idx, x, y)
        reps, size = idx.shape
        _, offsets = index_of(reps)
        losses = np.logaddexp(_ZERO, -stacked_products(idx, x)[1])
        bins = (idx + offsets).ravel()
        sums = np.bincount(bins, weights=losses.ravel(), minlength=reps * n)
        # only the touched bins: an untouched one stays the +0.0 of 0.0 / size
        sums.put(bins, mean_of(sums.take(bins), size))
        return sums.reshape(reps, n)

    problem = ProblemSpec(
        n=ds.n_features, m=n,
        grad_x=grad_x, grad_y=grad_y,
        prox_f=prox.prox_zero,
        prox_g=prox.prox_quadratic_over_simplex(eta2, n),
        smoothness=det_constants,
        convexity=ConvexityModuli(gamma=gamma, mu_y=mu_y),
        noise=NoiseLevels(0.0, 0.0),
        sgrad_x=sgrad_x, sgrad_y=sgrad_y,
        d_y=math.sqrt(2.0),
        oracle_batch=sgrad_batch,
        draw=fs.sample, draw_x=sgrad_batch, draw_y=sgrad_batch,
        grad_h=grad_h,
    )
    return DroInstance(n_samples=n, alpha=alpha, eta1=eta1, eta2=eta2,
                       problem=problem, finite_sum=fs, signed_features=signed)


@dataclass
class QuadraticSaddle:
    """Phi(x,y) = x'Ax/2 + x'By - mu_y ||y||^2/2 with lambda_min(A) = -gamma.

    Exposes the closed forms of the primal function
    phi(x) = x'(A + BB'/mu_y)x/2 and of its Moreau prox and gradient, the
    exact reference for Moreau stationarity on this instance.
    """

    a: np.ndarray
    b: np.ndarray
    gamma: float
    mu_y: float
    problem: ProblemSpec = field(repr=False)

    @property
    def h(self):
        return self.a + self.b @ self.b.T / self.mu_y

    def phi(self, x):
        return 0.5 * float(x @ self.h @ x)

    def moreau_prox(self, x, lam):
        if not (0 < lam < 1.0 / self.gamma):
            raise ConfigurationError("lambda must lie in (0, 1/gamma)")
        n = self.a.shape[0]
        return np.linalg.solve(np.eye(n) + lam * self.h, x)

    def moreau_grad(self, x, lam):
        return (x - self.moreau_prox(x, lam)) / lam


def make_quadratic_saddle(n: int, m: int, gamma: float, mu_y: float, rng) -> QuadraticSaddle:
    """Random instance with lambda_min(A) = -gamma exactly and phi convex.

    A = Q diag(eigs) Q' with one eigenvalue pinned at -gamma; B covers the
    negative eigendirection strongly enough that H = A + BB'/mu_y has
    smallest eigenvalue gamma/4, so phi is bounded below with its minimizer
    at the origin.
    """
    if gamma <= 0 or mu_y <= 0:
        raise ConfigurationError("gamma, mu_y must be positive")
    if m < 1 or n < 1:
        raise ConfigurationError("dimensions must be positive")
    q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.concatenate([[-gamma], rng.uniform(0.2 * gamma, 2.0 * gamma, n - 1)])
    a = (q_mat * eigs) @ q_mat.T
    a = 0.5 * (a + a.T)

    u_mat, _ = np.linalg.qr(rng.standard_normal((m, m)))
    svals = np.zeros(min(n, m))
    svals[0] = math.sqrt(mu_y * (gamma + gamma / 4.0))
    if svals.size > 1:
        svals[1:] = rng.uniform(0.1, 1.0, svals.size - 1)
    b = q_mat[:, : svals.size] @ (svals[:, None] * u_mat[: svals.size, :])

    l_xx = float(np.max(np.abs(eigs)))
    l_coupling = float(np.max(svals))
    constants = SmoothnessConstants(l_xx=l_xx, l_xy=l_coupling,
                                    l_yx=l_coupling, l_yy=mu_y)

    bt = b.T
    mu_y_c = _constant(mu_y)  # 0-d coefficient (sapd module docstring)

    def grad_x(x, y):
        return a.dot(x) + b.dot(y)

    def grad_y(x, y):
        return bt.dot(x) - mu_y_c * y

    problem = ProblemSpec(
        n=n, m=m, grad_x=grad_x, grad_y=grad_y,
        prox_f=prox.prox_zero, prox_g=prox.prox_zero,
        smoothness=constants,
        convexity=ConvexityModuli(gamma=gamma, mu_y=mu_y),
    )
    return QuadraticSaddle(a=a, b=b, gamma=gamma, mu_y=mu_y, problem=problem)


@dataclass
class BilinearBoxToy:
    """Phi(x,y) = c*x*y on y in [-1, 1]: the merely-concave test problem.

    phi(x) = |c x| and prox_{lam phi} is soft thresholding, so the smoothing
    path has an exact reference.
    """

    c: float
    gamma: float
    problem: ProblemSpec = field(repr=False)

    def phi(self, x):
        return abs(self.c * float(x[0]))

    def moreau_prox(self, x, lam):
        v = float(x[0])
        t = lam * abs(self.c)
        return np.array([math.copysign(max(abs(v) - t, 0.0), v)])

    def moreau_grad_norm(self, x, lam):
        return abs(float(x[0]) - float(self.moreau_prox(x, lam)[0])) / lam


def make_bilinear_box_toy(c: float = 1.0, gamma: float = 1.0) -> BilinearBoxToy:
    c_c = _constant(c)  # 0-d coefficient (sapd module docstring)
    problem = ProblemSpec(
        n=1, m=1,
        grad_x=lambda x, y: c_c * y,
        grad_y=lambda x, y: c_c * x,
        prox_f=prox.prox_zero,
        # bitwise np.clip(v, -1, 1), without clip's dispatch overhead
        prox_g=lambda v, step: np.minimum(np.maximum(v, _MINUS_ONE), _ONE),
        smoothness=SmoothnessConstants(l_xx=0.0, l_xy=abs(c), l_yx=abs(c), l_yy=0.0),
        convexity=ConvexityModuli(gamma=gamma, mu_y=0.0),
        d_y=2.0,
    )
    return BilinearBoxToy(c=c, gamma=gamma, problem=problem)
