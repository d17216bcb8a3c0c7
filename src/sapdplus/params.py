"""Theory-driven step-size selection and 5x5 matrix-inequality certification.

The admissible (tau, sigma, theta, rho, alpha) tuples for the inner solver
are exactly those making a 5x5 matrix G positive semidefinite; the
variance-reduced variant subtracts a diagonal correction.  This module
builds those matrices, certifies tuples, and evaluates the closed-form
parameter rules (momentum lower bounds, step sizes, inner/outer iteration
counts, batch sizes).
"""

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InfeasibleScheduleError
from .problem import ConvexityModuli, NoiseLevels, SmoothnessConstants
from .sapd import SapdParams
from .vr import VrParams

PSD_TOL = 1e-9


@dataclass(frozen=True)
class LmiCertificate:
    """Feasibility record for one parameter tuple: the smallest eigenvalue of
    the symmetrized G (or G - diag(g) in the VR case), feasible when it is
    at least -PSD_TOL."""

    min_eigenvalue: float
    feasible: bool


def _certificate(g) -> LmiCertificate:
    min_eig = float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
    return LmiCertificate(min_eigenvalue=min_eig, feasible=min_eig >= -PSD_TOL)


def _assemble_g(tau, sigma, theta, rho, alpha, mu_x, s: SmoothnessConstants, mu_y):
    # G[0,0] = (1/tau)(1 - 1/rho) + mu_x/rho and G[1,1] = (1/sigma)(1 - 1/rho)
    # + mu_y as printed are differences of terms of order 1/(1 - theta) near
    # theta = 1.  Over one denominator, with rho - 1 exact (rho >= 1/2), their
    # rounding error is of the order of mu_x and mu_y, not of 1/(1 - theta).
    lbar_xx_gap = 1.0 / tau - s.l_xx  # caller passes l_xx already including mu_x + gamma
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


def build_lmi(tau, sigma, theta, rho, alpha, mu_x,
              smoothness: SmoothnessConstants, convexity: ConvexityModuli) -> LmiCertificate:
    """Assemble the 5x5 matrix G for the inner solver and report feasibility.

    Entries follow the printed matrix with bar(L)_xx = l_xx + mu_x + gamma.
    """
    if tau <= 0 or sigma <= 0:
        raise ConfigurationError("tau, sigma must be positive")
    if not (0 < rho <= 1):
        raise ConfigurationError("rho must lie in (0, 1]")
    if theta < 0:
        raise ConfigurationError("theta must be nonnegative")
    if not (0 <= alpha < 1.0 / sigma):
        raise ConfigurationError("alpha must lie in [0, 1/sigma)")
    s_shift = SmoothnessConstants(
        smoothness.l_xx + mu_x + convexity.gamma,
        smoothness.l_xy, smoothness.l_yx, smoothness.l_yy,
    )
    return _certificate(_assemble_g(tau, sigma, theta, rho, alpha, mu_x, s_shift,
                                    convexity.mu_y))


def _vr_corrections(q, b_x, b_y, mu_x, mu_y, lp_xx, s: SmoothnessConstants):
    """L'_x = 2(q-1) (l'_xx^2/(mu_x b_x) + 10 l_yx^2/(mu_y b_y)) and
    L'_y = 2(q-1) (l_xy^2/(mu_x b_x) + 10 l_yy^2/(mu_y b_y)).  Each caller
    sums lp_xx = l_xx + mu_x + gamma its own way; on DRO they round apart."""
    if q < 1 or b_x < 1 or b_y < 1:
        raise ConfigurationError("q, b_x, b_y must be >= 1")
    if mu_x <= 0 or mu_y <= 0:
        raise ConfigurationError("mu_x, mu_y must be positive")
    c_q = 2.0 * (q - 1)
    return (c_q * (lp_xx**2 / (mu_x * b_x) + 10.0 * s.l_yx**2 / (mu_y * b_y)),
            c_q * (s.l_xy**2 / (mu_x * b_x) + 10.0 * s.l_yy**2 / (mu_y * b_y)))


def build_vr_lmi(tau, sigma, q, b_x, b_y, mu_x,
                 smoothness: SmoothnessConstants, convexity: ConvexityModuli) -> LmiCertificate:
    """G - diag(g) >= 0 certificate for the variance-reduced inner solver.

    The VR parameter rule fixes theta = rho = 1, the multipliers of the
    first two rows at (mu_x, mu_y) and alpha = l_yx + l_yy, the published
    choices, so g = [mu_x, mu_y, L'_x, L'_y, 0] with L'_x, L'_y from
    _vr_corrections.  alpha may sit on the alpha = 1/sigma boundary when
    l_yy = 0, which is admissible here.
    """
    if tau <= 0 or sigma <= 0:
        raise ConfigurationError("tau, sigma must be positive")
    s, mu_y = smoothness, convexity.mu_y
    lp_xx = s.l_xx + mu_x + convexity.gamma
    lx_corr, ly_corr = _vr_corrections(q, b_x, b_y, mu_x, mu_y, lp_xx, s)
    alpha = s.l_yx + s.l_yy
    if alpha > 1.0 / sigma + 1e-12:
        raise ConfigurationError("alpha = l_yx + l_yy must be at most 1/sigma")

    s_shift = SmoothnessConstants(lp_xx, s.l_xy, s.l_yx, s.l_yy)
    g = _assemble_g(tau, sigma, 1.0, 1.0, alpha, mu_x, s_shift, mu_y)
    g -= np.diag([mu_x, mu_y, lx_corr, ly_corr, 0.0])
    return _certificate(g)


def beta_of(smoothness: SmoothnessConstants, convexity: ConvexityModuli) -> float:
    """beta = min{1/2, mu_y/(4 gamma), gamma/(4 mu_y), l_yx/(2 l_xy)}."""
    if convexity.mu_y <= 0:
        raise ConfigurationError(
            "mu_y = 0: merely-concave problems take the smoothing path"
        )
    g, mu = convexity.gamma, convexity.mu_y
    return min(0.5, mu / (4 * g), g / (4 * mu), smoothness.l_yx / (2 * smoothness.l_xy))


def theta_bar_components(beta, smoothness: SmoothnessConstants,
                         convexity: ConvexityModuli, mu_x) -> tuple:
    """(theta_bar_1, theta_bar_2): momentum lower bounds from the step-size rule.

    theta_bar_1 solves l_yx^2 u^2 + beta mu_y l'_xx u - beta mu_y mu_x = 0
    in u = 1 - theta; theta_bar_2 handles the l_yy coupling (0 when l_yy = 0).
    """
    if not (0 < beta <= 1):
        raise ConfigurationError("beta must lie in (0, 1]")
    if mu_x <= 0:
        raise ConfigurationError("mu_x must be positive")
    s, mu_y = smoothness, convexity.mu_y
    lp_xx = s.l_xx + mu_x + convexity.gamma
    # a tiny mu_y underflows beta l'_xx^2 mu_y, or r below, and the bounds
    # come out infinite or nan
    scale = beta * lp_xx**2 * mu_y
    ratio = 4 * s.l_yx**2 * mu_x / scale if scale else math.inf
    tb1 = 1.0 - (beta * mu_y * lp_xx / (2 * s.l_yx**2)) * (math.sqrt(1.0 + ratio) - 1.0)
    if s.l_yy == 0:
        tb2 = 0.0
    else:
        r = (1.0 - beta) ** 2 * mu_y**2 / s.l_yy**2
        tb2 = 1.0 - (r / 8.0) * (math.sqrt(1.0 + 16.0 / r) - 1.0) if r else math.nan
    if not (math.isfinite(tb1) and math.isfinite(tb2)):
        raise InfeasibleScheduleError(
            f"momentum lower bounds ({tb1:.6g}, {tb2:.6g}) are not finite at "
            f"mu_y = {mu_y:.6g}: degenerate constants")
    return tb1, tb2


def theta_noise_floor(convexity: ConvexityModuli, noise: NoiseLevels, epsilon) -> tuple:
    """Noise-driven momentum floors; both 0 in the deterministic case.

    theta_dbar_1 = max{0, 1 - eps^2/(384 delta_x^2)}
    theta_dbar_2 = (1 + (mu_y/(10 gamma)) eps^2/(384 delta_y^2))^{-1}
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if noise.delta_x == 0:
        td1 = 0.0
    else:
        td1 = max(0.0, 1.0 - epsilon**2 / (384.0 * noise.delta_x**2))
    if noise.delta_y == 0:
        td2 = 0.0
    else:
        td2 = 1.0 / (
            1.0
            + (convexity.mu_y / (10.0 * convexity.gamma))
            * epsilon**2
            / (384.0 * noise.delta_y**2)
        )
    return td1, td2


# reads the SapdParams fields of a schedule in their order, with no field
# scan per call
_sapd_fields = attrgetter(*(f.name for f in fields(SapdParams)))


@dataclass(frozen=True)
class Theorem1Schedule(SapdParams):
    """One certified inner-solver configuration from the closed-form rule:
    the SapdParams tuple with the rule's beta, momentum bounds, stage count
    and certificate."""

    beta: float
    theta_bar_1: float
    theta_bar_2: float
    theta_dbar_1: float
    theta_dbar_2: float
    t_outer: int
    certificate: LmiCertificate

    def sapd_params(self) -> SapdParams:
        """The inner-solver tuple alone."""
        return SapdParams(*_sapd_fields(self))



def inner_iterations(theta: float) -> int:
    """N = ceil(ln(265)/ln(1/theta)) + 1 (ceiling keeps N at or above the bound)."""
    if not (0 < theta < 1):
        raise ConfigurationError("theta must lie in (0, 1) for the N rule")
    return math.ceil(math.log(265.0) / math.log(1.0 / theta)) + 1


def step_rule(theta: float, mu_x: float, smoothness: SmoothnessConstants,
              convexity: ConvexityModuli, tau: Optional[float] = None,
              sigma: Optional[float] = None,
              n_inner: Optional[int] = None) -> SapdParams:
    """The closed-form inner-solver tuple at momentum theta (rho = theta).

    tau = (1-theta)/mu_x, sigma = (1-theta)/(mu_y theta),
    alpha = 1/sigma - sqrt(theta) l_yy, N = inner_iterations(theta).
    A given tau, sigma or n_inner replaces its closed form (a manual tuple);
    alpha always follows the sigma used.  l_yy = 0 puts alpha exactly on the
    alpha = 1/sigma boundary, so it is shaved within the certificate's
    feasibility margin; a negative alpha is raised to 0.
    """
    if tau is None:
        tau = (1.0 - theta) / mu_x
    if sigma is None:
        # the floor keeps a manual check of mu_y = 0 finite
        sigma = (1.0 - theta) / max(convexity.mu_y * theta, 1e-300)
    alpha = 1.0 / sigma - math.sqrt(theta) * smoothness.l_yy
    if alpha >= 1.0 / sigma:
        alpha = (1.0 - 1e-9) / sigma
    return SapdParams(tau=tau, sigma=sigma, theta=theta, rho=theta,
                      alpha=max(alpha, 0.0), mu_x=mu_x,
                      n_inner=inner_iterations(theta) if n_inner is None else n_inner)


def theorem1_schedule(smoothness: SmoothnessConstants, convexity: ConvexityModuli,
                      noise: NoiseLevels, epsilon: float, gap0: float) -> Theorem1Schedule:
    """Closed-form certified schedule for the non-VR solver.

    mu_x = gamma; theta = max of the four momentum lower bounds, and the
    step sizes follow from step_rule; T = ceil(96 gap0 gamma / eps^2) + 1.
    """
    if gap0 < 0:
        raise ConfigurationError("gap0 must be nonnegative")
    mu_x = convexity.gamma
    beta = beta_of(smoothness, convexity)
    tb1, tb2 = theta_bar_components(beta, smoothness, convexity, mu_x)
    td1, td2 = theta_noise_floor(convexity, noise, epsilon)
    theta = max(tb1, tb2, td1, td2)
    if theta >= 1.0:
        raise InfeasibleScheduleError(
            f"momentum lower bound {theta:.6g} >= 1: degenerate constants"
        )
    theta = min(max(theta, 1e-12), 1.0 - 1e-15)
    params = step_rule(theta, mu_x, smoothness, convexity)
    t_outer = math.ceil(96.0 * gap0 * convexity.gamma / epsilon**2) + 1
    cert = build_lmi(params.tau, params.sigma, theta, theta, params.alpha, mu_x,
                     smoothness, convexity)
    if not cert.feasible:
        raise RuntimeError(
            "internal consistency failure: the closed-form schedule must "
            f"certify (min eigenvalue {cert.min_eigenvalue:.3e})"
        )
    return Theorem1Schedule(
        **vars(params), beta=beta, theta_bar_1=tb1, theta_bar_2=tb2,
        theta_dbar_1=td1, theta_dbar_2=td2, t_outer=t_outer, certificate=cert,
    )


def vr_step_sizes(smoothness: SmoothnessConstants, lp_xx, lx_corr, ly_corr) -> tuple:
    """(tau, sigma) = ((l_yx + l'_xx + L'_x)^{-1}, (2 l_yy + l_yx + L'_y)^{-1}),
    the step sizes of the VR rule at theta = 1.  The caller sums l'_xx and
    gives L'_x and L'_y (see _vr_corrections), or zeros for a deterministic
    run."""
    s = smoothness
    return 1.0 / (s.l_yx + lp_xx + lx_corr), 1.0 / (2.0 * s.l_yy + s.l_yx + ly_corr)


def vr_batch_floor(noise: NoiseLevels, convexity: ConvexityModuli, epsilon: float) -> int:
    """Large-batch rule b >= ceil(max{144 delta_x^2, 360 delta_y^2 gamma/mu_y}/eps^2), at least 1."""
    if convexity.mu_y <= 0:
        raise ConfigurationError("mu_y must be positive for the VR batch rule")
    need = max(
        144.0 * noise.delta_x**2,
        360.0 * noise.delta_y**2 * convexity.gamma / convexity.mu_y,
    ) / epsilon**2
    return max(1, math.ceil(need))


def vr_schedule(smoothness: SmoothnessConstants, convexity: ConvexityModuli,
                noise: NoiseLevels, epsilon: float, gap0: float,
                q: int, b_x: int, b_y: int, zeta: float = 32.0):
    """Certified variance-reduced schedule (theta = rho = 1).

    tau = (l_yx + l'_xx + L'_x)^{-1}, sigma = (2 l_yy + l_yx + L'_y)^{-1}
    (vr_step_sizes) with mu_x = gamma in L'_x, L'_y (see _vr_corrections)
    and l'_xx summed as l_xx + 2 gamma, which on the default DRO instance
    rounds apart from build_vr_lmi's (l_xx + gamma) + gamma,
    N = ceil(2(1+zeta) max{1/(gamma tau) - 1, 1/(mu_y sigma)}),
    T = ceil(288 gap0 gamma/eps^2), b from the batch floor.
    Returns (VrParams, LmiCertificate, t_outer).
    """
    if zeta <= 0:
        raise ConfigurationError("zeta must be positive")
    s, gamma, mu_y = smoothness, convexity.gamma, convexity.mu_y
    mu_x = gamma
    lp_xx = s.l_xx + 2.0 * gamma
    lx_corr, ly_corr = _vr_corrections(q, b_x, b_y, mu_x, mu_y, lp_xx, s)
    tau, sigma = vr_step_sizes(s, lp_xx, lx_corr, ly_corr)
    b = vr_batch_floor(noise, convexity, epsilon)
    n_inner = max(1, math.ceil(2.0 * (1.0 + zeta) * max(1.0 / (gamma * tau) - 1.0,
                                                        1.0 / (mu_y * sigma))))
    t_outer = max(1, math.ceil(288.0 * gap0 * gamma / epsilon**2))
    cert = build_vr_lmi(tau, sigma, q, b_x, b_y, mu_x, smoothness, convexity)
    if not cert.feasible:
        raise RuntimeError(
            "internal consistency failure: the VR schedule must certify "
            f"(min eigenvalue {cert.min_eigenvalue:.3e})"
        )
    params = VrParams(tau=tau, sigma=sigma, b=b, b_x=b_x, b_y=b_y, q=q,
                      n_inner=n_inner, mu_x=mu_x)
    return params, cert, t_outer
