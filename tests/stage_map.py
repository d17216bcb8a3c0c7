"""The exact affine map of one deterministic SAPD stage on a quadratic saddle.

A stage centered at c runs the inner solver on the shifted coupling
Phi(x, y) + (k/2)||x - c||^2 with k = mu_x + gamma, not mu_x
(problem.shifted_subproblem).  On QuadraticSaddle, whose prox maps are the
identity, its exact gradients are affine in z = (x, y):

    grad_x = (A + k I) x + B y - k c,    g(z) = grad_y = B'x - mu_y y.

So is every step of a run on them (sapd module docstring), in the state
w_k = (z_k, z_{k-1}, a_k), with a_k = rho a_{k-1} + z_k the running sum:

    s_0 = g(z_0),    s_k = (1 + theta) g(z_k) - theta g(z_{k-1}),
    y_{k+1} = y_k + sigma s_k,
    x_{k+1} = x_k - tau grad_x(x_k, y_{k+1}),
    a_{k+1} = rho a_k + z_{k+1}.

Step 0 has matrices of its own, since s_0 = g_0 reads no z_{-1}; every
later step is w_{k+1} = M w_k + v.  A stage of N steps ends at z_N with the
rho-weighted average a_N / (1 + rho + ... + rho^{N-1}).  The package needs
none of this; it is a closed form for tests, as fixtures.py holds others.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class StageMap:
    """(x_avg, y_avg, x_last, y_last), stacked, = linear @ (x0, y0) + offset."""

    linear: np.ndarray
    offset: np.ndarray
    n: int

    def __call__(self, x0, y0):
        out = self.linear @ np.concatenate([x0, y0]) + self.offset
        d = self.linear.shape[1]
        z_avg, z_last = out[:d], out[d:]
        return z_avg[:self.n], z_avg[self.n:], z_last[:self.n], z_last[self.n:]


def step_matrices(qs, params, center):
    """(M_0, M, v): the state w_1 = M_0 w_0 + v, and w_{k+1} = M w_k + v
    for k >= 1, of a stage of params on qs centered at center."""
    a, b, n, m = qs.a, qs.b, qs.a.shape[0], qs.b.shape[1]
    d = n + m
    shift = params.mu_x + qs.gamma
    g = np.hstack([b.T, -qs.mu_y * np.eye(m)])
    # s_k as a map of (z_k, z_{k-1})
    first = np.hstack([g, np.zeros((m, d))])
    later = np.hstack([(1.0 + params.theta) * g, -params.theta * g])
    keep_x = np.hstack([np.eye(n), np.zeros((n, m + d))])
    keep_y = np.hstack([np.zeros((m, n)), np.eye(m), np.zeros((m, d))])
    x_step = np.eye(n) - params.tau * (a + shift * np.eye(n))

    def step(s):
        y_new = keep_y + params.sigma * s
        z_new = np.vstack([x_step @ keep_x - params.tau * b @ y_new, y_new])
        mat = np.zeros((3 * d, 3 * d))
        mat[:d, :2 * d] = z_new
        mat[d:2 * d, :d] = np.eye(d)
        mat[2 * d:, :2 * d] = z_new
        mat[2 * d:, 2 * d:] = params.rho * np.eye(d)
        return mat

    x_offset = params.tau * shift * np.asarray(center, dtype=float)
    v = np.concatenate([x_offset, np.zeros(m + d), x_offset, np.zeros(m)])
    return step(first), step(later), v


def stage_map(qs, params, center) -> StageMap:
    """The map from (x0, y0) to the output of a deterministic stage: what
    sapd_run(shifted_subproblem(qs.problem, center, params.mu_x), params,
    x0, y0, None) returns, in exact arithmetic."""
    m0, mat, v = step_matrices(qs, params, center)
    d = qs.a.shape[0] + qs.b.shape[1]
    # w_0 = (z_0, unread, 0)
    linear, offset = m0[:, :d], v
    weight = 1.0
    for _ in range(params.n_inner - 1):
        linear, offset = mat @ linear, mat @ offset + v
        weight = params.rho * weight + 1.0
    avg, last = slice(2 * d, 3 * d), slice(0, d)
    return StageMap(linear=np.vstack([linear[avg] / weight, linear[last]]),
                    offset=np.concatenate([offset[avg] / weight, offset[last]]),
                    n=qs.a.shape[0])
