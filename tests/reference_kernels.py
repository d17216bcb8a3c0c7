"""Frozen reference copies of package code, for bit-identity tests.

These are `project_simplex`, `_pairwise_mean`, `SparseDataset.dense` and
the DRO oracles as they stood before the kernels were made lean: a sort
then a threshold search over every index, an allocating tree mean, a row
loop, oracles on the unsigned feature rows that multiply by the labels
afterwards, and the robust loss with its dual solved by 50 prox-gradient
steps.  Then the per-row loop for the squared row norms of `build_dro`;
the two quadratic-shift transforms and the step-size arithmetic as they
stood before each became one function; the sign-flipped form of the 5x5
certificate matrix; and the variance-reduced schedule and certificate with
their correction terms L'_x, L'_y written out in each, as they stood
before the two shared one helper.  They are not part of the package.  Do not edit
them to follow later changes of the package; the one exception is the
`value` oracle and `mu_x` field the two transforms also carried, which
went with the package's `ProblemSpec.value` and `ProblemSpec.mu_x`.
"""

import math
from dataclasses import replace

import numpy as np

from sapdplus.params import PSD_TOL
from sapdplus.problem import SmoothnessConstants


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


def reference_row_norms_sq(ds):
    return np.array([float(np.sum(ds.row(i)[1] ** 2)) for i in range(ds.n_samples)])


def reference_shifted_subproblem(p, center, mu_x):
    center = np.asarray(center, dtype=float)
    coef = mu_x + p.convexity.gamma
    base_grad_x, base_sgrad_x = p.grad_x, p.sgrad_x

    def grad_x(x, y):
        return base_grad_x(x, y) + coef * (x - center)

    sgrad_x = None
    if base_sgrad_x is not None:
        def sgrad_x(x, y, rng):
            return base_sgrad_x(x, y, rng) + coef * (x - center)

    s = p.smoothness
    return replace(
        p, grad_x=grad_x, sgrad_x=sgrad_x,
        smoothness=SmoothnessConstants(s.l_xx + coef, s.l_xy, s.l_yx, s.l_yy),
    )


def reference_smooth_dual(p, mu_hat, anchor):
    anchor = np.asarray(anchor, dtype=float)
    base_gy, base_sgy = p.grad_y, p.sgrad_y

    def grad_y(x, y):
        return base_gy(x, y) - mu_hat * (y - anchor)

    sgrad_y = None
    if base_sgy is not None:
        def sgrad_y(x, y, rng):
            return base_sgy(x, y, rng) - mu_hat * (y - anchor)

    s = p.smoothness
    return replace(
        p, grad_y=grad_y, sgrad_y=sgrad_y,
        smoothness=SmoothnessConstants(s.l_xx, s.l_xy, s.l_yx, s.l_yy + mu_hat),
        convexity=replace(p.convexity, mu_y=mu_hat),
    )


def reference_inner_iterations(theta):
    return math.ceil(math.log(265.0) / math.log(1.0 / theta)) + 1


def reference_theorem1_steps(theta, gamma, mu_y, l_yy):
    """(tau, sigma, alpha, n_inner) of the closed-form schedule at theta."""
    tau = (1.0 - theta) / gamma
    sigma = (1.0 - theta) / (mu_y * theta)
    alpha = 1.0 / sigma - math.sqrt(theta) * l_yy
    if alpha >= 1.0 / sigma:
        alpha = (1.0 - 1e-9) / sigma
    return tau, sigma, alpha, reference_inner_iterations(theta)


def reference_scsc_inner_params(s, c, mu_x, theta_bar):
    """(tau, sigma, theta, rho, alpha, n_inner) of the nested prox solve;
    theta_bar is the momentum bound at mu_x when mu_y > 0."""
    lp_xx = s.l_xx + mu_x + c.gamma
    if c.mu_y > 0:
        theta = min(max(theta_bar, 1e-12), 1.0 - 1e-12)
        tau = (1.0 - theta) / mu_x
        sigma = (1.0 - theta) / (c.mu_y * theta)
        alpha = 1.0 / sigma - math.sqrt(theta) * s.l_yy
        if alpha >= 1.0 / sigma:
            alpha = (1.0 - 1e-9) / sigma
        return tau, sigma, theta, theta, alpha, reference_inner_iterations(theta)
    tau = 1.0 / (s.l_yx + lp_xx)
    sigma = 1.0 / (2.0 * s.l_yy + s.l_yx)
    alpha = min(s.l_yx + s.l_yy, (1.0 - 1e-9) / sigma)
    return tau, sigma, 1.0, 1.0, alpha, 200


def reference_cli_manual_alpha_rho(theta, sigma, l_yy):
    """(alpha, rho) of a manual `solve` schedule, with its own boundary clamps."""
    alpha = max(0.0, min(1.0 / sigma - math.sqrt(theta) * l_yy, (1 - 1e-12) / sigma))
    rho = min(theta, 1.0 - 1e-12) if theta < 1 else 1.0
    return alpha, rho


def reference_lmi_sign_flipped_feasible(tau, sigma, theta, rho, alpha, mu_x, s, c):
    """The G' form of the certificate, couplings -|1 - theta/rho| in place of
    theta/rho - 1; it is PSD exactly when G is."""
    l_xx = s.l_xx + mu_x + c.gamma
    off = -abs(1.0 - theta / rho)
    g = np.zeros((5, 5))
    g[0, 0] = (1.0 / tau) * (1.0 - 1.0 / rho) + mu_x / rho
    g[1, 1] = (1.0 / sigma) * (1.0 - 1.0 / rho) + c.mu_y
    g[1, 2] = g[2, 1] = off * s.l_yx
    g[1, 3] = g[3, 1] = off * s.l_yy
    g[2, 2] = 1.0 / tau - l_xx
    g[3, 3] = 1.0 / sigma - alpha
    g[2, 4] = g[4, 2] = -(theta / rho) * s.l_yx
    g[3, 4] = g[4, 3] = -(theta / rho) * s.l_yy
    g[4, 4] = alpha / rho
    return float(np.linalg.eigvalsh(g)[0]) >= -PSD_TOL


def reference_vr_schedule_steps(s, c, epsilon, gap0, q, b_x, b_y, zeta):
    """(tau, sigma, n_inner, t_outer) of `vr_schedule`; l'_xx = l_xx + 2 gamma."""
    gamma, mu_y = c.gamma, c.mu_y
    lp_xx = s.l_xx + 2.0 * gamma
    lx_corr = 2.0 * (q - 1) * (lp_xx**2 / (gamma * b_x) + 10.0 * s.l_yx**2 / (mu_y * b_y))
    ly_corr = 2.0 * (q - 1) * (s.l_xy**2 / (gamma * b_x) + 10.0 * s.l_yy**2 / (mu_y * b_y))
    tau = 1.0 / (s.l_yx + lp_xx + lx_corr)
    sigma = 1.0 / (2.0 * s.l_yy + s.l_yx + ly_corr)
    n_inner = max(1, math.ceil(2.0 * (1.0 + zeta) * max(1.0 / (gamma * tau) - 1.0,
                                                        1.0 / (mu_y * sigma))))
    t_outer = max(1, math.ceil(288.0 * gap0 * gamma / epsilon**2))
    return tau, sigma, n_inner, t_outer


def _reference_assemble_g(tau, sigma, theta, rho, alpha, mu_x, s, mu_y):
    lbar_xx_gap = 1.0 / tau - s.l_xx
    c = theta / rho - 1.0
    g = np.zeros((5, 5))
    g[0, 0] = (mu_x * tau + (rho - 1.0)) / (tau * rho)
    g[1, 1] = (rho - 1.0) / (sigma * rho) + mu_y
    g[1, 2] = g[2, 1] = c * s.l_yx
    g[1, 3] = g[3, 1] = c * s.l_yy
    g[2, 2] = lbar_xx_gap
    g[3, 3] = 1.0 / sigma - alpha
    g[2, 4] = g[4, 2] = -(theta / rho) * s.l_yx
    g[3, 4] = g[4, 3] = -(theta / rho) * s.l_yy
    g[4, 4] = alpha / rho
    return g


def reference_vr_lmi_min_eigenvalue(tau, sigma, q, b_x, b_y, mu_x, s, c):
    """Smallest eigenvalue of G - diag(g) in `build_vr_lmi`; l'_xx = (l_xx + mu_x) + gamma."""
    mu_y = c.mu_y
    alpha = s.l_yx + s.l_yy
    lp_xx = s.l_xx + mu_x + c.gamma
    c_q = 2.0 * (q - 1)
    lx_corr = c_q * (lp_xx**2 / (mu_x * b_x) + 10.0 * s.l_yx**2 / (mu_y * b_y))
    ly_corr = c_q * (s.l_xy**2 / (mu_x * b_x) + 10.0 * s.l_yy**2 / (mu_y * b_y))
    s_shift = SmoothnessConstants(lp_xx, s.l_xy, s.l_yx, s.l_yy)
    g = _reference_assemble_g(tau, sigma, 1.0, 1.0, alpha, mu_x, s_shift, mu_y)
    g -= np.diag([mu_x, mu_y, lx_corr, ly_corr, 0.0])
    return float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
