"""Frozen reference copies of the DRO kernels, for bit-identity tests.

These are `project_simplex`, `_pairwise_mean`, `SparseDataset.dense` and
the DRO oracles as they stood before the kernels were made lean: a sort
then a threshold search over every index, an allocating tree mean, a row
loop, oracles on the unsigned feature rows that multiply by the labels
afterwards, and the robust loss with its dual solved by 50 prox-gradient
steps.  They are not part of the package.  Do not edit them to follow
later changes of the kernels.
"""

import numpy as np


def reference_project_simplex(v):
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - cssv) / j > 0)[0][-1]
    lam = (1.0 - cssv[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def reference_prox_quadratic_over_simplex(v, step, eta2, n_scale):
    v = np.asarray(v, dtype=float)
    shifted = (v / step + eta2 * n_scale) / (eta2 * n_scale**2 + 1.0 / step)
    return reference_project_simplex(shifted)


def reference_pairwise_mean(rows):
    count = rows.shape[0]
    m = count
    while m > 1:
        half = m // 2
        rows[:half] = rows[:half] + rows[half: 2 * half]
        if m % 2:
            rows[half] = rows[2 * half]
            half += 1
        m = half
        rows = rows[:m]
    return rows[0] / count


def reference_dense(ds):
    a = np.zeros((ds.n_samples, ds.n_features))
    for i in range(ds.n_samples):
        idx, val = ds.row(i)
        a[i, idx] = val
    return a


def _sigmoid_neg(z):
    return 0.5 * (1.0 - np.tanh(0.5 * z))


class ReferenceDro:
    """The DRO oracles of `build_dro` on the unsigned feature rows."""

    def __init__(self, ds, alpha, eta1, eta2):
        self.labels = ds.labels
        self.features = reference_dense(ds)
        self.n = ds.n_samples
        self.alpha, self.eta1, self.eta2 = alpha, eta1, eta2

    def losses(self, x):
        z = self.labels * (self.features @ x)
        return np.logaddexp(0.0, -z)

    def loss_gradients(self, x):
        z = self.labels * (self.features @ x)
        sig = _sigmoid_neg(z)
        return -(self.labels * sig)[:, None] * self.features

    def regularizer(self, x):
        ax2 = self.alpha * x**2
        return self.eta1 * float(np.sum(ax2 / (1.0 + ax2)))

    def regularizer_grad(self, x):
        ax2 = self.alpha * x**2
        return self.eta1 * 2.0 * self.alpha * x / (1.0 + ax2) ** 2

    def g_value(self, y):
        return 0.5 * self.eta2 * float(np.sum((self.n * y - 1.0) ** 2))

    def lagrangian(self, x, y):
        return (float(y @ self.losses(x)) / self.n + self.regularizer(x)
                - self.g_value(y))

    def robust_loss(self, x, steps=50):
        n = self.n
        losses = self.losses(x)
        y = np.full(n, 1.0 / n)
        step = 1.0 / (self.eta2 * n**2)
        for _ in range(steps):
            y = reference_prox_quadratic_over_simplex(y + step * losses / n, step,
                                                      self.eta2, n)
        return self.lagrangian(x, y)

    def grad_x(self, x, y):
        return self.loss_gradients(x).T @ y / self.n + self.regularizer_grad(x)

    def grad_y(self, x, y):
        return self.losses(x) / self.n

    def value(self, x, y):
        return self.lagrangian(x, y) + self.g_value(y)

    def batch_grad_x(self, idx, x, y):
        idx = np.asarray(idx)
        a = self.features[idx]
        z = self.labels[idx] * (a @ x)
        sig = _sigmoid_neg(z)
        rows = -(y[idx] * self.labels[idx] * sig)[:, None] * a
        return reference_pairwise_mean(rows) + self.regularizer_grad(x)

    def batch_grad_y(self, idx, x, y):
        idx = np.asarray(idx)
        a = self.features[idx]
        z = self.labels[idx] * (a @ x)
        return np.bincount(idx, weights=np.logaddexp(0.0, -z),
                           minlength=self.n) / idx.size
