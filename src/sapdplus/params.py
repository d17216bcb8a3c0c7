"""Theory-driven step-size selection and 5x5 matrix-inequality certification.

The admissible (tau, sigma, theta, rho, alpha) tuples for the inner solver
are exactly those making a 5x5 matrix G positive semidefinite; the
variance-reduced variant subtracts a diagonal correction.  This module
builds those matrices, certifies tuples, and evaluates the closed-form
parameter rules (momentum lower bounds, step sizes, inner/outer iteration
counts, batch sizes).
"""

import math
from dataclasses import dataclass, fields, replace
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
    # eigvalsh does not converge on an inf or nan entry: a tuple whose matrix
    # leaves the finite floats is not certified
    h = 0.5 * (g + g.T)
    min_eig = float(np.linalg.eigvalsh(h)[0]) if np.isfinite(h).all() else -math.inf
    return LmiCertificate(min_eigenvalue=min_eig, feasible=min_eig >= -PSD_TOL)


def _count(what, value) -> int:
    """ceil(value()), the count of a closed-form rule, with value a function
    of no arguments so that its arithmetic runs here.  Raises
    InfeasibleScheduleError naming `what` where that arithmetic leaves the
    finite floats: a square or a ceiling that overflows, or a divisor that
    underflows to 0."""
    try:
        return math.ceil(value())
    except (OverflowError, ZeroDivisionError):
        raise InfeasibleScheduleError(f"{what} is not finite: degenerate constants") from None


def _assemble_g(tau, sigma, theta, rho, alpha, mu_x, s: SmoothnessConstants, mu_y):
    # G[0,0] = (1/tau)(1 - 1/rho) + mu_x/rho and G[1,1] = (1/sigma)(1 - 1/rho)
    # + mu_y as printed are differences of terms of order 1/(1 - theta) near
    # theta = 1.  Over one denominator, with rho - 1 exact (rho >= 1/2), their
    # rounding error is of the order of mu_x and mu_y, not of 1/(1 - theta).
    lbar_xx_gap = 1.0 / tau - s.l_xx  # caller passes l_xx already including mu_x + gamma
    c = theta / rho - 1.0
    g = np.zeros((5, 5))
    # tau rho or sigma rho underflows to 0 only where 1/tau or 1/sigma is
    # already infinite, and the certificate refuses the tuple either way
    g[0, 0] = (mu_x * tau + (rho - 1.0)) / (tau * rho) if tau * rho else math.inf
    g[1, 1] = (rho - 1.0) / (sigma * rho) + mu_y if sigma * rho else math.inf
    g[1, 2] = g[2, 1] = c * s.l_yx
    g[1, 3] = g[3, 1] = c * s.l_yy
    g[2, 2] = lbar_xx_gap
    g[3, 3] = 1.0 / sigma - alpha
    g[2, 4] = g[4, 2] = -(theta / rho) * s.l_yx
    g[3, 4] = g[4, 3] = -(theta / rho) * s.l_yy
    g[4, 4] = alpha / rho
    return g


def _vr_corrections(q, b_x, b_y, mu_x, mu_y, lp_xx, s: SmoothnessConstants):
    """L'_x = 2(q-1) (l'_xx^2/(mu_x b_x) + 10 l_yx^2/(mu_y b_y)) and
    L'_y = 2(q-1) (l_xy^2/(mu_x b_x) + 10 l_yy^2/(mu_y b_y)).  Each caller
    sums lp_xx = l_xx + mu_x + gamma its own way; on DRO they round apart.
    A square that overflows makes both infinite."""
    if q < 1 or b_x < 1 or b_y < 1:
        raise ConfigurationError("q, b_x, b_y must be >= 1")
    if mu_x <= 0 or mu_y <= 0:
        raise ConfigurationError("mu_x, mu_y must be positive")
    c_q = 2.0 * (q - 1)
    try:
        return (c_q * (lp_xx**2 / (mu_x * b_x) + 10.0 * s.l_yx**2 / (mu_y * b_y)),
                c_q * (s.l_xy**2 / (mu_x * b_x) + 10.0 * s.l_yy**2 / (mu_y * b_y)))
    except OverflowError:
        return math.inf, math.inf


def certify(schedule, smoothness: SmoothnessConstants,
            convexity: ConvexityModuli) -> LmiCertificate:
    """The certificate of a SapdParams or VrParams tuple for these constants,
    the one place where a schedule meets its matrix inequality: G >= 0 with
    bar(L)_xx = l_xx + mu_x + gamma as printed, or G - diag(g) >= 0 for a
    VrParams tuple.

    The VR parameter rule fixes theta = rho = 1, the multipliers of the
    first two rows at (mu_x, mu_y) and alpha = l_yx + l_yy, the published
    choices, so g = [mu_x, mu_y, L'_x, L'_y, 0] with L'_x, L'_y from
    _vr_corrections.  alpha may sit on the alpha = 1/sigma boundary when
    l_yy = 0, which is admissible here.

    A matrix that leaves the finite floats is not certified (min eigenvalue
    -inf).  The tuple's type has checked its own ranges; raises
    ConfigurationError where _vr_corrections refuses a VR tuple or its
    alpha exceeds 1/sigma.
    """
    s, mu_x, mu_y = smoothness, schedule.mu_x, convexity.mu_y
    s_shift = replace(s, l_xx=s.l_xx + mu_x + convexity.gamma)
    if isinstance(schedule, VrParams):
        lx_corr, ly_corr = _vr_corrections(schedule.q, schedule.b_x, schedule.b_y, mu_x,
                                           mu_y, s_shift.l_xx, s)
        alpha = s.l_yx + s.l_yy
        if alpha > 1.0 / schedule.sigma + 1e-12:
            raise ConfigurationError("alpha = l_yx + l_yy must be at most 1/sigma")
        g = _assemble_g(schedule.tau, schedule.sigma, 1.0, 1.0, alpha, mu_x, s_shift, mu_y)
        return _certificate(g - np.diag([mu_x, mu_y, lx_corr, ly_corr, 0.0]))
    return _certificate(_assemble_g(schedule.tau, schedule.sigma, schedule.theta, schedule.rho,
                                    schedule.alpha, mu_x, s_shift, mu_y))


def build_lmi(tau, sigma, theta, rho, alpha, mu_x,
              smoothness: SmoothnessConstants, convexity: ConvexityModuli) -> LmiCertificate:
    """certify for the SapdParams tuple of these fields; its n_inner = 1
    does not enter the matrix."""
    return certify(SapdParams(tau, sigma, theta, rho, alpha, mu_x, n_inner=1),
                   smoothness, convexity)


def build_vr_lmi(tau, sigma, q, b_x, b_y, mu_x,
                 smoothness: SmoothnessConstants, convexity: ConvexityModuli) -> LmiCertificate:
    """certify for the VrParams tuple of these fields; its b = max(b_x, b_y)
    and n_inner = 1 do not enter the matrix."""
    return certify(VrParams(tau, sigma, b=max(b_x, b_y), b_x=b_x, b_y=b_y, q=q, n_inner=1,
                            mu_x=mu_x), smoothness, convexity)


def beta_of(smoothness: SmoothnessConstants, convexity: ConvexityModuli) -> float:
    """beta = min{1/2, mu_y/(4 gamma), gamma/(4 mu_y), l_yx/(2 l_xy)}.

    Raises InfeasibleScheduleError where beta underflows to 0."""
    if convexity.mu_y <= 0:
        raise ConfigurationError(
            "mu_y = 0: merely-concave problems take the smoothing path"
        )
    g, mu = convexity.gamma, convexity.mu_y
    beta = min(0.5, mu / (4 * g), g / (4 * mu), smoothness.l_yx / (2 * smoothness.l_xy))
    if not beta > 0:
        raise InfeasibleScheduleError(f"beta underflows to 0 at gamma = {g:.6g}, "
                                      f"mu_y = {mu:.6g}: degenerate constants")
    return beta


def theta_bar_components(beta, smoothness: SmoothnessConstants,
                         convexity: ConvexityModuli, mu_x) -> tuple:
    """(theta_bar_1, theta_bar_2): momentum lower bounds from the step-size rule.

    theta_bar_1 solves l_yx^2 u^2 + beta mu_y l'_xx u - beta mu_y mu_x = 0
    in u = 1 - theta; theta_bar_2 handles the l_yy coupling (0 when l_yy = 0).
    Both take the root's difference sqrt(1 + r) - 1 as r/(sqrt(1 + r) + 1),
    which does not round to 0, and the bound to 1, once r falls below the
    spacing of the floats at 1.
    """
    if not (0 < beta <= 1):
        raise ConfigurationError("beta must lie in (0, 1]")
    if mu_x <= 0:
        raise ConfigurationError("mu_x must be positive")
    s, mu_y = smoothness, convexity.mu_y
    lp_xx = s.l_xx + mu_x + convexity.gamma
    # a tiny mu_y underflows beta l'_xx^2 mu_y, or r below, and the bounds
    # come out infinite or nan; a square may also overflow, or underflow a
    # divisor to 0
    try:
        scale = beta * lp_xx**2 * mu_y
        ratio = 4 * s.l_yx**2 * mu_x / scale if scale else math.inf
        c = beta * mu_y * lp_xx / (2 * s.l_yx**2)
        tb1 = 1.0 - c * ratio / (math.sqrt(1.0 + ratio) + 1.0)
        if s.l_yy == 0:
            tb2 = 0.0
        else:
            r = (1.0 - beta) ** 2 * mu_y**2 / s.l_yy**2
            tb2 = 1.0 - 2.0 / (math.sqrt(1.0 + 16.0 / r) + 1.0) if r else math.nan
    except (OverflowError, ZeroDivisionError):
        tb1 = tb2 = math.nan
    if not (math.isfinite(tb1) and math.isfinite(tb2)):
        raise InfeasibleScheduleError(
            f"momentum lower bounds ({tb1:.6g}, {tb2:.6g}) are not finite: "
            "degenerate constants")
    return tb1, tb2


def theta_noise_floor(convexity: ConvexityModuli, noise: NoiseLevels, epsilon) -> tuple:
    """Noise-driven momentum floors; both 0 in the deterministic case.

    theta_dbar_1 = max{0, 1 - eps^2/(384 delta_x^2)}
    theta_dbar_2 = (1 + (mu_y/(10 gamma)) eps^2/(384 delta_y^2))^{-1}

    Raises InfeasibleScheduleError where a floor leaves the finite floats.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    # a square may overflow or underflow a divisor to 0, and an overflowed
    # numerator over an overflowed divisor makes theta_dbar_2 nan
    try:
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
    except (OverflowError, ZeroDivisionError):
        td1 = td2 = math.nan
    if not (math.isfinite(td1) and math.isfinite(td2)):
        raise InfeasibleScheduleError(
            f"noise floors ({td1:.6g}, {td2:.6g}) are not finite at eps = {epsilon:.6g}: "
            "degenerate constants")
    return td1, td2


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
        return SapdParams(**{f.name: getattr(self, f.name) for f in fields(SapdParams)})



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
    feasibility margin; a negative alpha is raised to 0.  Raises
    InfeasibleScheduleError where 1/sigma overflows.
    """
    if tau is None:
        tau = (1.0 - theta) / mu_x
    if sigma is None:
        # the floor keeps a manual check of mu_y = 0 finite
        sigma = (1.0 - theta) / max(convexity.mu_y * theta, 1e-300)
    alpha = 1.0 / sigma - math.sqrt(theta) * smoothness.l_yy
    if alpha == math.inf:
        raise InfeasibleScheduleError(
            f"alpha = 1/sigma - sqrt(theta) l_yy is not finite at sigma = {sigma:.6g}")
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
    Raises InfeasibleScheduleError naming the quantity where the rule gives
    no schedule: a momentum bound at or above 1, a bound, alpha or T that
    leaves the finite floats, or a tuple that does not certify.
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
    t_outer = _count(f"stage count T at eps = {epsilon:.6g}",
                     lambda: 96.0 * gap0 * convexity.gamma / epsilon**2) + 1
    cert = certify(params, smoothness, convexity)
    if not cert.feasible:
        raise InfeasibleScheduleError(
            "the closed-form schedule does not certify (min eigenvalue "
            f"{cert.min_eigenvalue:.3e}): degenerate constants")
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
    """Large-batch rule b >= ceil(max{144 delta_x^2, 360 delta_y^2 gamma/mu_y}/eps^2), at least 1.

    Raises InfeasibleScheduleError where b leaves the finite floats."""
    if not epsilon > 0:
        raise ConfigurationError("epsilon must be positive")
    if convexity.mu_y <= 0:
        raise ConfigurationError("mu_y must be positive for the VR batch rule")
    return max(1, _count(f"large batch b at eps = {epsilon:.6g}", lambda: max(
        144.0 * noise.delta_x**2,
        360.0 * noise.delta_y**2 * convexity.gamma / convexity.mu_y,
    ) / epsilon**2))


def vr_schedule(smoothness: SmoothnessConstants, convexity: ConvexityModuli,
                noise: NoiseLevels, epsilon: float, gap0: float,
                q: int, b_x: int, b_y: int, zeta: float = 32.0):
    """Certified variance-reduced schedule (theta = rho = 1).

    tau = (l_yx + l'_xx + L'_x)^{-1}, sigma = (2 l_yy + l_yx + L'_y)^{-1}
    (vr_step_sizes) with mu_x = gamma in L'_x, L'_y (see _vr_corrections)
    and l'_xx summed as l_xx + 2 gamma, which on the default DRO instance
    rounds apart from certify's (l_xx + gamma) + gamma,
    N = ceil(2(1+zeta) max{1/(gamma tau) - 1, 1/(mu_y sigma)}),
    T = ceil(288 gap0 gamma/eps^2), b from the batch floor.
    Returns (VrParams, LmiCertificate, t_outer).  Raises
    InfeasibleScheduleError naming the quantity where the rule gives no
    schedule: tau or sigma that is not a positive float, N, T or b that
    leaves the finite floats, or a tuple that does not certify.
    """
    if zeta <= 0:
        raise ConfigurationError("zeta must be positive")
    if gap0 < 0:
        raise ConfigurationError("gap0 must be nonnegative")
    s, gamma, mu_y = smoothness, convexity.gamma, convexity.mu_y
    mu_x = gamma
    lp_xx = s.l_xx + 2.0 * gamma
    lx_corr, ly_corr = _vr_corrections(q, b_x, b_y, mu_x, mu_y, lp_xx, s)
    tau, sigma = vr_step_sizes(s, lp_xx, lx_corr, ly_corr)
    if not (tau > 0 and sigma > 0):
        # an infinite or nan correction
        raise InfeasibleScheduleError(f"VR step sizes ({tau:.6g}, {sigma:.6g}) are not "
                                      "positive: degenerate constants")
    b = vr_batch_floor(noise, convexity, epsilon)
    n_inner = max(1, _count("VR inner count N", lambda: 2.0 * (1.0 + zeta) * max(
        1.0 / (gamma * tau) - 1.0, 1.0 / (mu_y * sigma))))
    t_outer = max(1, _count(f"VR stage count T at eps = {epsilon:.6g}",
                            lambda: 288.0 * gap0 * gamma / epsilon**2))
    params = VrParams(tau=tau, sigma=sigma, b=b, b_x=b_x, b_y=b_y, q=q,
                      n_inner=n_inner, mu_x=mu_x)
    cert = certify(params, smoothness, convexity)
    if not cert.feasible:
        raise InfeasibleScheduleError(
            "the VR schedule does not certify (min eigenvalue "
            f"{cert.min_eigenvalue:.3e}): degenerate constants")
    return params, cert, t_outer
