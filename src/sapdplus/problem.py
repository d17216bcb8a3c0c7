"""Saddle-point problem abstraction: oracles, constants, and finite sums.

A problem is min_x max_y f(x) + Phi(x,y) - g(y) with Phi(.,y) gamma-weakly
convex, Phi(x,.) concave (strong-concavity modulus mu_y >= 0 for the pair
Phi - g), f and g prox-friendly convex.  Solvers only touch the oracle
callables and the constants collected here.

An oracle or prox map marked replica_safe also takes replica stacks: R
points at once as the rows of (R, n) and (R, m) arrays (C-contiguous
reshapes of the solver's flat arrays), with the random values of a
stochastic call as an (R, size) array, C-contiguous too, whose row r
belongs to replica r; row r of its result is, bit for bit, the result of
the call on the rows r alone.  A prox map marked out_safe also takes
out=, an array of its result's shape that aliases no argument, writes
into it, bit for bit, the result it would return, and returns it; the
inner solver passes its iterate block, so the result needs no copy.  Each
mark is an attribute of the callable itself, so a wrapper that does not
set it, such as a timing shim, makes a run take the one-point path and
copy the prox map's result.
"""

import math
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
        # each comparison is false for NaN
        if not (0 < self.l_xy < math.inf and 0 < self.l_yx < math.inf):
            raise ConfigurationError(
                "coupling constants l_xy, l_yx must be finite and > 0")
        if not (0 <= self.l_xx < math.inf and 0 <= self.l_yy < math.inf):
            raise ConfigurationError("l_xx, l_yy must be finite and >= 0")


@dataclass(frozen=True)
class ConvexityModuli:
    """gamma: weak-convexity modulus of Phi(.,y); mu_y: strong concavity (0 = merely concave)."""

    gamma: float
    mu_y: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ConfigurationError("gamma must be finite and positive")
        if not 0 <= self.mu_y < math.inf:
            raise ConfigurationError("mu_y must be finite and nonnegative")


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

    grad_x/grad_y are deterministic partial gradients.  sgrad_x/sgrad_y are
    stochastic versions called as sgrad(x, y, z): z holds the random values
    of that one call, which the solver draws as draw(rng, size) and hands
    over.  One x-call consumes draw_x values, one y-call draw_y.  draw must
    give the same values however a run of draws is split into calls, so a
    solver may draw many calls' values at once and slice them in call
    order.  An axis without a stochastic oracle draws nothing (size 0), and
    a solver run without an rng uses the exact gradients.  prox_f/prox_g
    take (point, step).
    The x and y of an oracle call and the point of a prox call may be
    views of the inner solver's arrays, valid during the call only: the
    solver writes later iterates into them (an estimator reads the
    previous point for one more iteration), so an oracle or prox map that
    keeps one must copy it, as an on_iterate hook must.  The solver never
    writes into the result of an oracle or a prox map.
    The package's oracles and prox maps compute in float64: their
    coefficients are 0-d float64 arrays, so a float32 operand is promoted
    to float64 (NEP 50), where a Python-float coefficient would keep it
    float32.
    oracle_batch is the number of single-sample draws one sgrad call costs
    (1 for a single-sample oracle, b for a mini-batch oracle).
    grad_h(x) is the gradient of the x-only part h of the coupling, shared by
    every component of a finite sum (FiniteSumSpec): grad_x and sgrad_x
    include it, batch_grad_x leaves it out.  None means h = 0.
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
    d_y: Optional[float] = None
    oracle_batch: int = 1
    draw: Optional[Callable] = None
    draw_x: int = 0
    draw_y: int = 0
    grad_h: Optional[Callable] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError("dimensions must be positive")
        for sgrad, size in ((self.sgrad_x, self.draw_x), (self.sgrad_y, self.draw_y)):
            if (sgrad is not None) != (size > 0) or (size > 0 and self.draw is None):
                raise ConfigurationError(
                    "a stochastic oracle needs draw and a positive draw size, "
                    "an exact-only axis a draw size of 0")
        c, s = self.convexity, self.smoothness
        if c.gamma > s.l_xx + 1e-12 and s.l_xx > 0:
            warnings.warn(
                "gamma exceeds l_xx; a gamma-weakly convex l_xx-smooth coupling "
                "satisfies gamma <= l_xx",
                stacklevel=2,
            )


def replica_safe(fn):
    """Mark fn as taking replica stacks (module docstring); returns fn."""
    fn.replica_safe = True
    return fn


def is_replica_safe(fn) -> bool:
    """Whether fn carries the replica_safe mark."""
    return getattr(fn, "replica_safe", False)


def out_safe(fn):
    """Mark fn as taking out= (module docstring); returns fn."""
    fn.out_safe = True
    return fn


def is_out_safe(fn) -> bool:
    """Whether fn carries the out_safe mark."""
    return getattr(fn, "out_safe", False)


def add_quadratic(p: ProblemSpec, axis: str, coef: float, center, **changes) -> ProblemSpec:
    """Coupling Phi(x,y) + (coef/2)*||z - center||^2, z the `axis` variable ('x' or 'y').

    grad_<axis> and sgrad_<axis> gain coef*(z - center), sgrad_<axis> passing
    its draws through, and on the x axis so does grad_h; the other oracles
    are unchanged.  A center of shape (R, dim) gives each replica of a stack
    its own center; a new oracle is replica_safe when the one it shifts is.
    The oracles read center as it is here, so the caller writes nothing into
    it later.  The caller updates the constants through `changes`, which go
    to the same replace.
    """
    dim = p.n if axis == "x" else p.m
    center = np.asarray(center, dtype=float)
    if center.ndim not in (1, 2) or center.shape[-1] != dim:
        raise ConfigurationError(
            f"center has shape {center.shape}, expected ({dim},) or (R, {dim})")
    grad, sgrad = getattr(p, "grad_" + axis), getattr(p, "sgrad_" + axis)
    coef_c = np.array(coef)  # 0-d coefficient (sapd module docstring)
    # closures built per axis and center, so the oracles do no per-call dispatch
    if axis == "x":
        base = p.grad_h

        def new_grad(x, y):
            return grad(x, y) + coef_c * (x - center)

        def new_sgrad(x, y, draws):
            return sgrad(x, y, draws) + coef_c * (x - center)

        def grad_h(x):
            return coef_c * (x - center)

        def based_grad_h(x):
            return base(x) + coef_c * (x - center)
        if base is not None:
            grad_h = based_grad_h
        if base is None or is_replica_safe(base):
            replica_safe(grad_h)
        changes["grad_h"] = grad_h
    # y - (+0.0) is y for every float y, so a center of +0.0 entries, which
    # one exact test of every bit finds, adds coef*y: one call fewer per
    # oracle call.  A -0.0 entry keeps the subtraction (-0.0 - -0.0 is +0.0).
    # The smoothing anchor is such a center on every stage of a run from
    # y0 = 0; the x center of a stage is all +0.0 only at the first stage
    # of a run from x0 = 0, so the x axis takes the general form alone.
    elif np.count_nonzero(center.view(np.uint64)) == 0:
        def new_grad(x, y):
            return grad(x, y) + coef_c * y

        def new_sgrad(x, y, draws):
            return sgrad(x, y, draws) + coef_c * y
    else:
        def new_grad(x, y):
            return grad(x, y) + coef_c * (y - center)

        def new_sgrad(x, y, draws):
            return sgrad(x, y, draws) + coef_c * (y - center)

    if is_replica_safe(grad):
        replica_safe(new_grad)
    if is_replica_safe(sgrad):
        replica_safe(new_sgrad)
    return replace(p, **{"grad_" + axis: new_grad,
                         "sgrad_" + axis: None if sgrad is None else new_sgrad},
                   **changes)


def shifted_subproblem(p: ProblemSpec, center, mu_x: float) -> ProblemSpec:
    """Quadratic-shifted coupling Phi(x,y) + ((mu_x+gamma)/2)*||x - center||^2.

    The shift makes Phi(.,y) mu_x-strongly convex; l_xx grows by mu_x+gamma.
    """
    if mu_x <= 0:
        raise ConfigurationError("mu_x must be positive")
    coef = mu_x + p.convexity.gamma
    s = p.smoothness
    return add_quadratic(
        p, "x", coef, center,
        smoothness=SmoothnessConstants(s.l_xx + coef, s.l_xy, s.l_yx, s.l_yy),
    )


@dataclass
class FiniteSumSpec:
    """Finite-sum oracle: Phi = h(x) + (1/n_comp) * sum_i Phi_i.

    batch_grad_x/batch_grad_y take (indices, x, y) and return the mean of
    the component gradients over the index list (repeats allowed), summed in
    any order: the DRO x-batch sums by a BLAS product, so it matches a
    sequential sum to rounding only.  The shared term h is the problem's
    (ProblemSpec.grad_h) and is not part of batch_grad_x, so an unbiased
    x-gradient estimate is a batch mean plus grad_h, and a difference of two
    batches at the same indices needs no h at all.  h depends on x alone,
    so batch_grad_y has no such term.
    A batch oracle may carry a fused two-point difference as its attribute
    `difference`: difference(idx, x, y, x_at, y_at) returns, bit for bit,
    batch(idx, x, y) - batch(idx, x_at, y_at), as a fresh array, for
    float64 points as the solver passes them.  The SPIDER recursion makes
    one such call per step and axis.  Like the replica_safe mark, it is an
    attribute of the callable itself, so a wrapper that does not set it,
    such as a timing or counting shim, makes a run take two batch calls per
    step, each through the wrapper.
    Every index lies in [0, n_comp), as sample draws them; the oracles do not
    check this, and outside it they may disagree (a DRO x-batch wraps a
    negative index, its y-batch raises).  as_smoothness holds the
    almost-sure per-component Lipschitz constants of the unshifted
    coupling, h included: a stage's quadratic shift (shifted_subproblem)
    moves the problem's constants, not these.
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


def with_gaussian_noise(p: ProblemSpec, delta_x: float, delta_y: float) -> ProblemSpec:
    """Wrap the deterministic oracles with isotropic Gaussian noise.

    The noise vector has E||noise||^2 = delta^2, matching the variance-bound
    convention of NoiseLevels.  An x-call takes n standard normals and a
    y-call m; an axis with delta = 0 keeps its exact gradient and draws
    nothing.
    """
    gx, gy = p.grad_x, p.grad_y
    # 0-d coefficients (sapd module docstring)
    scale_x, scale_y = np.array(delta_x / np.sqrt(p.n)), np.array(delta_y / np.sqrt(p.m))

    def sgrad_x(x, y, z):
        return gx(x, y) + scale_x * z

    def sgrad_y(x, y, z):
        return gy(x, y) + scale_y * z

    return replace(
        p,
        sgrad_x=sgrad_x if delta_x > 0 else None,
        sgrad_y=sgrad_y if delta_y > 0 else None,
        draw=lambda rng, size: rng.standard_normal(size),
        draw_x=p.n if delta_x > 0 else 0,
        draw_y=p.m if delta_y > 0 else 0,
        noise=NoiseLevels(delta_x, delta_y),
        oracle_batch=1,
    )
