"""Closed-form test instances that the package itself never builds.

`make_scsc_quadratic` wraps an explicit (A, B, mu_y) as a quadratic saddle,
`shifted_saddle` is the exact saddle of one proximal-point stage of a
quadratic instance, and `make_quadratic_finite_sum` splits a quadratic
instance into components with exact single-draw variances.  They moved here
unchanged from the package, which runs none of them, as did `theta_bar`.
`huber_prox` is the exact Moreau prox of the bilinear toy once its dual is
smoothed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from sapdplus import prox
from sapdplus.datasets import QuadraticSaddle, make_quadratic_saddle
from sapdplus.params import theta_bar_components
from sapdplus.problem import (ConvexityModuli, FiniteSumSpec, ProblemSpec,
                              SmoothnessConstants)


def make_scsc_quadratic(a, b, mu_y: float, gamma: float = 1.0) -> QuadraticSaddle:
    """Wrap explicit (A, B, mu_y) as a quadratic instance; A need not be indefinite."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n, m = a.shape[0], b.shape[1]
    constants = SmoothnessConstants(
        l_xx=max(float(np.max(np.abs(np.linalg.eigvalsh(a)))), 1e-12),
        l_xy=float(np.linalg.norm(b, 2)), l_yx=float(np.linalg.norm(b, 2)),
        l_yy=mu_y,
    )
    problem = ProblemSpec(
        n=n, m=m,
        grad_x=lambda x, y: a @ x + b @ y,
        grad_y=lambda x, y: b.T @ x - mu_y * y,
        prox_f=prox.prox_zero, prox_g=prox.prox_zero,
        smoothness=constants,
        convexity=ConvexityModuli(gamma=gamma, mu_y=mu_y),
    )
    return QuadraticSaddle(a=a, b=b, gamma=gamma, mu_y=mu_y, problem=problem)


def theta_bar(beta, smoothness, convexity, mu_x) -> float:
    """The momentum lower bound max(theta_bar_1, theta_bar_2)."""
    return max(theta_bar_components(beta, smoothness, convexity, mu_x))


def huber_prox(c, mu_hat, x, lam):
    """prox_{lam phi}(x) of the bilinear toy c*x*y, y in [-1, 1], with the dual
    smoothed by (mu_hat/2) y^2 around anchor 0.

    phi(w) = max_y c w y - mu_hat y^2/2 is the Huber function: c^2 w^2/(2 mu_hat)
    for |w| <= delta = mu_hat/|c|, and |c w| - mu_hat/2 beyond.  Its prox
    scales x by 1/(1 + lam c^2/mu_hat) while that lands in [-delta, delta],
    i.e. for |x| <= delta (1 + lam c^2/mu_hat), and otherwise moves x by
    lam |c| towards 0.
    """
    v = float(x[0])
    curv = c * c / mu_hat
    delta = mu_hat / abs(c)
    if abs(v) <= delta * (1.0 + lam * curv):
        return np.array([v / (1.0 + lam * curv)])
    return np.array([v - math.copysign(lam * abs(c), v)])


def shifted_saddle(qs: QuadraticSaddle, center, mu_x):
    """Unique saddle (x*, y*) of the mu_x-shifted subproblem of a quadratic
    instance; x* = prox_{lam phi}(center) with lam = 1/(mu_x + gamma)."""
    coef = mu_x + qs.gamma
    n = qs.a.shape[0]
    x_star = np.linalg.solve(qs.a + coef * np.eye(n) + qs.b @ qs.b.T / qs.mu_y,
                             coef * center)
    return x_star, qs.b.T @ x_star / qs.mu_y


@dataclass
class QuadraticFiniteSum:
    """Finite sum of quadratic components around a quadratic saddle base.

    Component i has gradients
        grad_x Phi_i = (A + E_i) x + (B + F_i) y + c_i
        grad_y Phi_i = (B + F_i)' x - mu_y y + d_i
    with the perturbations summing to zero, so the mean recovers the base.
    Single-draw variances are exact quadratics of the evaluation point.
    """

    base: QuadraticSaddle
    e: np.ndarray  # (n_comp, n, n)
    f: np.ndarray  # (n_comp, n, m)
    c: np.ndarray  # (n_comp, n)
    d: np.ndarray  # (n_comp, m)
    spec: FiniteSumSpec = field(repr=False)

    def single_draw_variance_x(self, x, y):
        dev = self.e @ x + self.f @ y + self.c
        return float(np.mean(np.sum(dev**2, axis=1)))

    def single_draw_variance_y(self, x, y):
        dev = np.einsum("kij,i->kj", self.f, x) + self.d
        return float(np.mean(np.sum(dev**2, axis=1)))


def make_quadratic_finite_sum(n_comp: int, n: int, m: int, gamma: float,
                              mu_y: float, rng, spread: float = 0.3
                              ) -> QuadraticFiniteSum:
    base = make_quadratic_saddle(n, m, gamma, mu_y, rng)
    e = rng.standard_normal((n_comp, n, n)) * spread
    e = 0.5 * (e + np.transpose(e, (0, 2, 1)))
    f = rng.standard_normal((n_comp, n, m)) * spread
    c = rng.standard_normal((n_comp, n)) * spread
    d = rng.standard_normal((n_comp, m)) * spread
    for arr in (e, f, c, d):
        arr -= arr.mean(axis=0, keepdims=True)

    a_mat, b_mat = base.a, base.b

    def batch_grad_x(idx, x, y):
        idx = np.asarray(idx)
        ai = a_mat + e[idx]
        bi = b_mat + f[idx]
        rows = np.einsum("kij,j->ki", ai, x) + np.einsum("kij,j->ki", bi, y) + c[idx]
        return rows.mean(axis=0)

    def batch_grad_y(idx, x, y):
        idx = np.asarray(idx)
        bi = b_mat + f[idx]
        rows = np.einsum("kij,i->kj", bi, x) - mu_y * y + d[idx]
        return rows.mean(axis=0)

    l_xx_as = max(np.linalg.norm(a_mat + e[i], 2) for i in range(n_comp))
    l_cpl_as = max(np.linalg.norm(b_mat + f[i], 2) for i in range(n_comp))
    as_constants = SmoothnessConstants(l_xx=float(l_xx_as), l_xy=float(l_cpl_as),
                                       l_yx=float(l_cpl_as), l_yy=mu_y)
    spec = FiniteSumSpec(n_comp=n_comp, batch_grad_x=batch_grad_x,
                         batch_grad_y=batch_grad_y, as_smoothness=as_constants)
    return QuadraticFiniteSum(base=base, e=e, f=f, c=c, d=d, spec=spec)
