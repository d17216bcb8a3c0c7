"""Saddle-point problem abstraction: oracles, constants, and finite sums.

A problem is min_x max_y f(x) + Phi(x,y) - g(y) with Phi(.,y) gamma-weakly
convex, Phi(x,.) concave (strong-concavity modulus mu_y >= 0 for the pair
Phi - g), f and g prox-friendly convex.  Solvers only touch the oracle
callables and the constants collected here.
"""

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz constants of the partial gradients.

    ||grad_x(x,y) - grad_x(x',y')|| <= l_xx ||x-x'|| + l_xy ||y-y'||
    ||grad_y(x,y) - grad_y(x',y')|| <= l_yx ||x-x'|| + l_yy ||y-y'||
    """

    l_xx: float
    l_xy: float
    l_yx: float
    l_yy: float

    def __post_init__(self):
        if self.l_xy <= 0 or self.l_yx <= 0:
            raise ConfigurationError("coupling constants l_xy, l_yx must be > 0")
        if self.l_xx < 0 or self.l_yy < 0:
            raise ConfigurationError("l_xx, l_yy must be >= 0")


@dataclass(frozen=True)
class ConvexityModuli:
    """gamma: weak-convexity modulus of Phi(.,y); mu_y: strong concavity (0 = merely concave)."""

    gamma: float
    mu_y: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.mu_y < 0:
            raise ConfigurationError("mu_y must be nonnegative")


@dataclass(frozen=True)
class NoiseLevels:
    """Variance bounds of the stochastic partial gradients (0 = deterministic)."""

    delta_x: float = 0.0
    delta_y: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.delta_x) and np.isfinite(self.delta_y)):
            raise ConfigurationError("noise levels must be finite")
        if self.delta_x < 0 or self.delta_y < 0:
            raise ConfigurationError("noise levels must be nonnegative")


@dataclass
class ProblemSpec:
    """Oracle bundle plus constants.

    grad_x/grad_y are deterministic partial gradients; sgrad_x/sgrad_y are
    stochastic versions taking an explicit numpy Generator (None falls back
    to the deterministic oracle).  prox_f/prox_g take (point, step).
    oracle_batch is the number of single-sample draws one sgrad call costs
    (1 for a single-sample oracle, b for a mini-batch oracle).
    """

    n: int
    m: int
    grad_x: Callable
    grad_y: Callable
    prox_f: Callable
    prox_g: Callable
    smoothness: SmoothnessConstants
    convexity: ConvexityModuli
    noise: NoiseLevels = field(default_factory=NoiseLevels)
    sgrad_x: Optional[Callable] = None
    sgrad_y: Optional[Callable] = None
    value: Optional[Callable] = None
    d_y: Optional[float] = None
    mu_x: float = 0.0  # strong convexity of Phi(.,y); > 0 only on shifted specs
    oracle_batch: int = 1

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError("dimensions must be positive")
        c, s = self.convexity, self.smoothness
        if c.gamma > s.l_xx + 1e-12 and s.l_xx > 0:
            warnings.warn(
                "gamma exceeds l_xx; a gamma-weakly convex l_xx-smooth coupling "
                "satisfies gamma <= l_xx",
                stacklevel=2,
            )

    def stoch_grad_x(self, x, y, rng):
        if self.sgrad_x is None or rng is None:
            return self.grad_x(x, y)
        return self.sgrad_x(x, y, rng)

    def stoch_grad_y(self, x, y, rng):
        if self.sgrad_y is None or rng is None:
            return self.grad_y(x, y)
        return self.sgrad_y(x, y, rng)

    def deterministic(self):
        """A copy whose stochastic oracles are the exact gradients."""
        return replace(
            self, sgrad_x=None, sgrad_y=None, noise=NoiseLevels(0.0, 0.0), oracle_batch=1
        )


def add_quadratic(p: ProblemSpec, axis: str, coef: float, center, **changes) -> ProblemSpec:
    """Coupling Phi(x,y) + (coef/2)*||z - center||^2, z the `axis` variable ('x' or 'y').

    grad_<axis> and sgrad_<axis> gain coef*(z - center) and value gains the
    quadratic; the other oracles are unchanged.  The caller updates the
    constants through `changes`, which go to the same replace.
    """
    dim = p.n if axis == "x" else p.m
    center = np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise ConfigurationError(f"center has shape {center.shape}, expected ({dim},)")
    grad, sgrad, value = getattr(p, "grad_" + axis), getattr(p, "sgrad_" + axis), p.value
    # closures built per axis, so the oracles do no per-call dispatch
    if axis == "x":
        def new_grad(x, y):
            return grad(x, y) + coef * (x - center)

        def new_sgrad(x, y, rng):
            return sgrad(x, y, rng) + coef * (x - center)
    else:
        def new_grad(x, y):
            return grad(x, y) + coef * (y - center)

        def new_sgrad(x, y, rng):
            return sgrad(x, y, rng) + coef * (y - center)

    def new_value(x, y):
        z = x if axis == "x" else y
        return value(x, y) + 0.5 * coef * float(np.sum((z - center) ** 2))

    return replace(p, **{"grad_" + axis: new_grad,
                         "sgrad_" + axis: None if sgrad is None else new_sgrad},
                   value=None if value is None else new_value, **changes)


def shifted_subproblem(p: ProblemSpec, center, mu_x: float) -> ProblemSpec:
    """Quadratic-shifted coupling Phi(x,y) + ((mu_x+gamma)/2)*||x - center||^2.

    The shift makes Phi(.,y) mu_x-strongly convex; l_xx grows by mu_x+gamma.
    """
    if mu_x <= 0:
        raise ConfigurationError("mu_x must be positive")
    coef = mu_x + p.convexity.gamma
    s = p.smoothness
    return add_quadratic(
        p, "x", coef, center, mu_x=mu_x,
        smoothness=SmoothnessConstants(s.l_xx + coef, s.l_xy, s.l_yx, s.l_yy),
    )


@dataclass
class FiniteSumSpec:
    """Finite-sum oracle: Phi = (1/n_comp) * sum_i Phi_i.

    batch_grad_x/batch_grad_y take (indices, x, y) and return the arithmetic
    mean of the component gradients over the index list (repeats allowed).
    as_smoothness holds the almost-sure per-component Lipschitz constants.
    """

    n_comp: int
    batch_grad_x: Callable
    batch_grad_y: Callable
    as_smoothness: SmoothnessConstants

    def sample(self, rng, size):
        """Uniform batch with replacement from {0, ..., n_comp-1}."""
        if size < 1:
            raise ConfigurationError("batch size must be >= 1")
        return rng.integers(0, self.n_comp, size=size)


def shifted_finite_sum(fs: FiniteSumSpec, center, coef: float) -> FiniteSumSpec:
    """Finite sum of the shifted coupling: every component x-gradient gains coef*(x-center)."""
    center = np.asarray(center, dtype=float)
    base = fs.batch_grad_x

    def batch_grad_x(idx, x, y):
        return base(idx, x, y) + coef * (x - center)

    s = fs.as_smoothness
    return FiniteSumSpec(
        n_comp=fs.n_comp,
        batch_grad_x=batch_grad_x,
        batch_grad_y=fs.batch_grad_y,
        as_smoothness=SmoothnessConstants(s.l_xx + coef, s.l_xy, s.l_yx, s.l_yy),
    )


def with_gaussian_noise(p: ProblemSpec, delta_x: float, delta_y: float) -> ProblemSpec:
    """Wrap the deterministic oracles with isotropic Gaussian noise.

    The noise vector has E||noise||^2 = delta^2, matching the variance-bound
    convention of NoiseLevels.
    """
    gx, gy = p.grad_x, p.grad_y

    def sgrad_x(x, y, rng):
        return gx(x, y) + (delta_x / np.sqrt(p.n)) * rng.standard_normal(p.n)

    def sgrad_y(x, y, rng):
        return gy(x, y) + (delta_y / np.sqrt(p.m)) * rng.standard_normal(p.m)

    return replace(
        p,
        sgrad_x=sgrad_x if delta_x > 0 else None,
        sgrad_y=sgrad_y if delta_y > 0 else None,
        noise=NoiseLevels(delta_x, delta_y),
        oracle_batch=1,
    )

