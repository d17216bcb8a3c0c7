"""Inner solver for strongly-convex-strongly-concave subproblems.

Both inner solvers run one loop.  Iteration k, from (x_k, y_k) and the
dual direction s_k:

    y_{k+1} = prox_{sigma g}(y_k + sigma * s_k)
    x_{k+1} = prox_{tau f}(x_k - tau * v_k),   v_k ~ grad_x(x_k, y_{k+1})
    s_{k+1} = next dual direction at (x_{k+1}, y_{k+1})

and the output is the rho^{-k}-weighted average of iterates 1..N.  A
gradient estimator supplies s_0, v_k and s_{k+1}.  The plain stochastic
one (here) evaluates g_k = sgrad_y(x_k, y_k) once per iteration and sets

    s_0 = g_0 + theta * 0,   s_{k+1} = g_{k+1} + theta * (g_{k+1} - g_k),

so each iteration consumes one fresh x-sample and one fresh y-sample (see
SapdParams.oracle_calls).  The oracles take no Generator: each call
receives its slice of random values, which the estimator draws for many
iterations at a time (_draws) in the order per-call drawing would give.
The SPIDER recursion is the other estimator (vr.py).
With theta = 0, rho = 1, alpha = 0 the loop is alternating proximal
stochastic gradient descent-ascent, the CLI's sgda-baseline.

Products that run once per iteration, per oracle call or per accelerated
prox step (the guard here, the quadratic and DRO oracles, evaluation's
norm) are written ndarray.dot, not @: on vectors of length 10, @ pays the
matmul gufunc's dispatch and takes about twice as long.  Both call the same
BLAS routine, so they agree bit for bit; the one exception is a product of
two one-element operands, where .dot is a plain multiply and keeps a -0.0
that @ returns as +0.0 (tests/test_kernel_identity.py holds this premise).
Setup-time products keep @.

Coefficients that multiply, divide, offset or clip an array once per
iteration or oracle call (tau, sigma, rho and theta here, the shift of
add_quadratic, the oracles' constants in datasets, the accelerated prox's
steps in evaluation) are 0-d float64 arrays, built once per stage or per
instance.  numpy 2 converts a Python-float operand on every call, which
costs about 175 ns more than a 0-d array (timeit minima, numpy 2.4.6:
543 against 367 ns for c * v at n = 1, 737 against 561 ns at n = 1000).
For float64 operands both forms run the same float64 loop (NEP 50), so
they agree bit for bit (tests/test_kernel_identity.py holds this premise).
A 0-d array spreads: a product of two of them is an np.float64, and a
float32 operand is promoted to float64.  So scalar arithmetic stays in
Python floats: the weight recursion, the guard's comparison, the fields of
SapdParams and VrParams, and the step handed to a prox map
(tests/test_scalar_types.py).

An inner iteration allocates nothing of its own; only the oracles and a
prox map other than prox_zero return fresh arrays.  A direct ufunc call
with a positional output array skips the allocation and the operator's
dispatch: on vectors of length 10, np.multiply(c, x, buf) takes 327 ns
against 396 ns for c * x, and np.add(x, y, buf) 323 ns against 377 ns
for x + y (interleaved timeit medians of 40 samples, numpy 2.4.6, Python
3.11, a 2-vCPU VM).  So each run allocates its arrays once:

- the iterate pair in two joint arrays of n + m entries, x first, whose
  x and y are two contiguous blocks: z_k is in one, iteration k writes
  z_{k+1} into the other, and the two swap roles, their x and y views
  with them.  The guard takes one dot product over the joint array, and
  the estimators read the previous point, which the other array holds
  until the iteration after;
- the running sums of the iterates in one joint array and a spare of the
  same layout: at rho < 1 one product of the whole array into the spare
  and one sum back, at rho = 1 the sum into the spare and a swap of the
  two.  Each element gets the arithmetic of a *= r; a += z, bit for bit,
  except that a sum of two NaNs may keep the other one's sign; the guard
  keeps NaN out of the sums (test_in_place_ufuncs_are_the_augmented_operators
  in tests/test_kernel_identity.py holds this premise);
- a scratch array per intermediate: sigma * s, tau * v and the argument
  of a prox map that is called, and in the estimators their recursions
  (per stage).

No output is one of its own operands.  When the output aliases a
one-element input, numpy copies that input first: np.add(a, x, a) takes
0.9-1.6 us against 0.3-0.6 us for np.add(a, x, b) (timeit minima; from two
elements on there is no gap).  An estimate whose recursion reads its last
value (u and w of the SPIDER estimator) alternates between two arrays.

A run may also take R replicas at once, in lockstep: x0 and y0 of shapes
(R, n) and (R, m) and a list of R generators, one per replica.  Every
array above then holds R rows, one per replica, and every ufunc acts row
by row, so row r follows, bit for bit, the run of replica r alone.  A
joint array is one flat array of R (n + m) entries, every x row and then
every y row, so that its x and y are contiguous (R, n) and (R, m)
reshapes; at R = 1 that is the 1-D layout.  The row views of an
(R, n + m) array, which the stack used before, run every ufunc 2-3 times
slower: on the (4, 1000) y rows of a (4, 1020) array np.add took 5.7 us
against 2.8 us on a contiguous stack, and on its (4, 20) x rows 1.6
against 0.5 us (timeit medians).  Each replica draws its blocks
from its own generator, on the schedule a run of its own would keep
(_draws), and the oracles take its values as row r of an (R, size)
array.  The guard takes one dot product over the whole stack, which bounds
every row's; only a stack that fails it (to within a margin above its
rounding) runs the one-replica guard on each replica's (x_r, y_r), which
names the first failing replica, as DivergenceError.replica, with the
message of a lone run.  The problem's oracles and prox maps that the run
calls must accept stacks (problem.replica_safe; takes_replica_stacks).  A
one-replica run keeps its 1-D arrays and their per-iteration cost.  On
the default DRO instance (1000 x 20, batches of 10, the theory schedule),
20 stages of 4 replicas in lockstep took 0.36-0.59 (median 0.47) of the
time of the 4 one-replica runs, bit for bit the same (12 interleaved
pairs, a 2-vCPU VM, numpy 2.4.6): an iteration makes as many ufunc calls
as one replica's, and on arrays of 20 and 1000 entries a call costs
mostly its dispatch.  A stack of one replica, though, took 1.07-1.31
(median 1.22) times as long as the 1-D run (12 such pairs), so the outer
loop runs a lone replica on 1-D arrays (outer._stage).

A prox map that is prox_zero, the identity, is not called: the update
writes straight into the iterate array.  The result of any other prox map
is copied into it, cast to float64; a traced run wraps the prox maps, so
it takes this path and gives the same bits.  The arrays belong to one run:
the last iterate it returns is a view of its own, which no later run
writes.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .problem import ProblemSpec, is_replica_safe
from .prox import prox_zero

DIVERGENCE_NORM = 1e12
# the share of DIVERGENCE_NORM**2 below which a stack's one dot product
# clears every row (_stacked_guard)
_STACK_MARGIN = 1e-6
# at most this many random values per drawn block: 512 KB of float64
CHUNK_VALUES = 2**16


@dataclass(frozen=True)
class SapdParams:
    """One inner-solver configuration (certifiable against the 5x5 LMI)."""

    tau: float
    sigma: float
    theta: float
    rho: float
    alpha: float
    mu_x: float
    n_inner: int

    def __post_init__(self):
        if self.tau <= 0 or self.sigma <= 0:
            raise ConfigurationError("tau, sigma must be positive")
        if not (0 <= self.theta <= 1):
            raise ConfigurationError("theta must lie in [0, 1]")
        if not (0 < self.rho <= 1):
            raise ConfigurationError("rho must lie in (0, 1]")
        if not (0 <= self.alpha < 1.0 / self.sigma):
            raise ConfigurationError("alpha must lie in [0, 1/sigma)")
        if self.n_inner < 1:
            raise ConfigurationError("n_inner must be >= 1")

    def oracle_calls(self, iterations: int) -> tuple:
        """(x_calls, y_calls) of an inner run of `iterations` iterations: one
        x-call and one y-call per iteration plus the initial y-call."""
        return iterations, iterations + 1

    def draws(self, iterations: int, oracle_batch: int) -> int:
        """Single-sample draws of an inner run; a call draws oracle_batch."""
        return sum(self.oracle_calls(iterations)) * oracle_batch


@dataclass
class SapdRunResult:
    """The output of an inner run; on a replica stack the arrays have a row
    per replica and last_step_norm is the norm of the whole stack's step."""

    x_avg: np.ndarray
    y_avg: np.ndarray
    x_last: np.ndarray
    y_last: np.ndarray
    last_step_norm: float
    iterations: int


def _guard(z, k):
    """Raise DivergenceError unless the joint iterate z = (x, y) is finite
    with norm at most DIVERGENCE_NORM."""
    # One comparison covers both failures: it is also false for NaN and +-inf.
    if not (z.dot(z) <= DIVERGENCE_NORM**2):
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"non-finite iterate at inner iteration {k}",
                                  iteration=k)
        raise DivergenceError(f"iterate norm above guard at inner iteration {k}",
                              iteration=k)


def _stacked_guard(reps, n):
    """The guard of a stack of `reps` replicas with n primal entries each,
    on the flat joint array of the stack (x rows, then y rows).

    One dot product over the whole array bounds every row's, and a stack
    that passes it within _STACK_MARGIN of the bound passes _guard on every
    row: a dot of N nonnegative squares rounds by at most about N * 2^-53
    of itself, below the margin for any stack of fewer than 10^9 entries.
    Only a stack that fails it is checked with _guard on each replica's
    joined (x_r, y_r), which raises as a lone replica would and names the
    first failing replica as the error's replica.
    """
    bound = DIVERGENCE_NORM**2 * (1.0 - _STACK_MARGIN)
    size_x = reps * n

    def guard(z, k):
        # false for a NaN or an inf in the stack as well
        if not (z.dot(z) <= bound):
            x, y = z[:size_x].reshape(reps, n), z[size_x:].reshape(reps, -1)
            for r in range(reps):
                try:
                    _guard(np.concatenate((x[r], y[r])), k)
                except DivergenceError as err:
                    err.replica = r
                    raise

    return guard


def _step_norm(x_new, y_new, x, y):
    return math.sqrt(((x_new - x) ** 2).sum() + ((y_new - y) ** 2).sum())


def _replicas(rng):
    """The leading shape of a run's arrays: (R,) for a list or tuple of R
    generators, () for one generator (or None)."""
    return (len(rng),) if isinstance(rng, (list, tuple)) else ()


def _draws(draw, rng, head, size_of, n):
    """take(size), which hands out the random values of one stage in call
    order.

    They come from draw(rng, size) in blocks of whole iterations, each block
    at most CHUNK_VALUES values unless one iteration alone is larger: `head`
    values before iteration 0, then size_of(k) values for iteration k of n.
    The values and the final generator state equal those of one draw per
    call, except that a stage which stops early leaves the generator past
    the rest of its last block.  The state lives in the closure, so a call
    makes no attribute lookups.  With a list of generators, one per
    replica, each one draws its own blocks on this schedule, and take(size)
    returns an (R, size) array whose row r holds replica r's values; a
    block then holds up to R * CHUNK_VALUES values.
    """
    block, pos, stop = None, 0, 0
    end = 0  # the first iteration not drawn yet
    stacked = _replicas(rng) != ()

    def refill():
        # draws the next block; returns its size
        nonlocal block, end, head
        k, total = end + 1, head + size_of(end)
        while k < n:
            size_k = size_of(k)
            if total + size_k > CHUNK_VALUES:
                break
            total += size_k
            k += 1
        block = np.stack([draw(g, total) for g in rng]) if stacked else draw(rng, total)
        head, end = 0, k
        return total

    if stacked:
        def take(size):
            nonlocal pos, stop
            start = pos
            if start == stop:
                stop, start = refill(), 0
            pos = start + size
            return block[:, start:start + size]
    else:
        def take(size):
            nonlocal pos, stop
            start = pos
            if start == stop:
                stop, start = refill(), 0
            pos = start + size
            return block[start:start + size]

    return take


def _stochastic_gradient(p: ProblemSpec, params, rng):
    """The plain estimator, a fresh stochastic draw per gradient, as the
    closures (first, primal, dual) of one stage.

    Each axis takes its stochastic oracle when there is an rng and the
    problem has one, else its exact gradient.  The stochastic calls take
    their values from one _draws: the first y-call's, then per iteration
    the x-call's before the y-call's.  dual writes s_{k+1} into one array,
    which the loop reads before the next call.  A list of generators
    makes the closures act on replica stacks (module docstring).
    """
    grad_x, grad_y = p.grad_x, p.grad_y
    nx, ny = (0, 0) if rng is None else (p.draw_x, p.draw_y)
    if nx or ny:
        take = _draws(p.draw, rng, ny, lambda k: nx + ny, params.n_inner)
    if nx:
        sgrad_x = p.sgrad_x
        grad_x = lambda x, y: sgrad_x(x, y, take(nx))  # noqa: E731
    if ny:
        sgrad_y = p.sgrad_y
        grad_y = lambda x, y: sgrad_y(x, y, take(ny))  # noqa: E731
    if params.theta == 0:
        # the sgda baseline: s = g, where the momentum form would give
        # +0.0 for g = -0.0 and NaN for an infinite g - g_k
        return grad_y, grad_x, grad_y
    theta = np.array(params.theta)  # 0-d coefficient (module docstring)
    subtract, multiply, add = np.subtract, np.multiply, np.add
    shape = _replicas(rng) + (p.m,)
    diff, momentum, s = np.empty(shape), np.empty(shape), np.empty(shape)
    g_prev = None

    def first(x, y):
        nonlocal g_prev
        g_prev = grad_y(x, y)
        return g_prev + theta * np.zeros_like(y)

    def dual(x, y):
        # s = g + theta * (g - g_k)
        nonlocal g_prev
        g = grad_y(x, y)
        subtract(g, g_prev, diff)
        multiply(theta, diff, momentum)
        add(g, momentum, s)
        g_prev = g
        return s

    return first, grad_x, dual


def takes_replica_stacks(p: ProblemSpec) -> bool:
    """Whether a stochastic run on p may take replica stacks: every oracle
    and prox map it calls, the stochastic oracle of an axis that has one
    and the exact gradient of one that has not, and each prox map other
    than prox_zero, is replica_safe."""
    called = [p.sgrad_x if p.draw_x else p.grad_x, p.sgrad_y if p.draw_y else p.grad_y]
    called += [prox for prox in (p.prox_f, p.prox_g) if prox is not prox_zero]
    return all(map(is_replica_safe, called))


def _inner_loop(p: ProblemSpec, params, estimator, x0, y0, step_tol=0.0,
                on_iterate=None) -> SapdRunResult:
    """The one inner iteration, with its gradients from `estimator`, the
    closures (first, primal, dual): first(x_0, y_0) gives s_0,
    primal(x_k, y_{k+1}) the x-gradient estimate and dual(x_{k+1}, y_{k+1})
    the direction s_{k+1}, called in that order (module docstring for the
    arrays)."""
    first, primal, dual = estimator
    tau, sigma, rho = params.tau, params.sigma, params.rho
    # 0-d coefficients for the array products; the floats go to the prox maps
    # and the weight recursion (module docstring)
    tau_c, sigma_c, rho_c = np.array(tau), np.array(sigma), np.array(rho)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    prox_f, prox_g = p.prox_f, p.prox_g
    call_f, call_g = prox_f is not prox_zero, prox_g is not prox_zero
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    # rows: () for one run, (R,) for a stack of R replicas
    rows, n, m = x0.shape[:-1], x0.shape[-1], y0.shape[-1]
    reps = rows[0] if rows else 1
    guard = _stacked_guard(reps, n) if rows else _guard
    # a joint array holds every x row, then every y row (module docstring)
    size, size_x = reps * (n + m), reps * n

    def split(z):
        return z[:size_x].reshape(rows + (n,)), z[size_x:].reshape(rows + (m,))

    # z_k in `cur`, z_{k+1} written into `nxt`; they swap, views and all
    cur, nxt = np.empty(size), np.empty(size)
    (x, y), (x_new, y_new) = split(cur), split(nxt)
    x[...], y[...] = x0, y0
    sigma_s, tau_v = np.empty(rows + (m,)), np.empty(rows + (n,))
    # read only by a called prox map
    arg_x, arg_y = np.empty(rows + (n,)), np.empty(rows + (m,))
    plain = rho == 1.0  # at rho = 1 the products are exact identities
    acc, spare = np.zeros(size), np.empty(size)
    s = first(x, y)
    weight = 0.0
    for k in range(params.n_inner):
        multiply(sigma_c, s, sigma_s)
        if call_g:
            add(y, sigma_s, arg_y)
            y_new[...] = prox_g(arg_y, sigma)
        else:
            add(y, sigma_s, y_new)
        multiply(tau_c, primal(x, y_new), tau_v)
        if call_f:
            subtract(x, tau_v, arg_x)
            x_new[...] = prox_f(arg_x, tau)
        else:
            subtract(x, tau_v, x_new)
        guard(nxt, k)
        s = dual(x_new, y_new)
        if plain:
            add(acc, nxt, spare)
            acc, spare = spare, acc
        else:
            multiply(acc, rho_c, spare)
            add(spare, nxt, acc)
        weight = rho * weight + 1.0
        cur, nxt, x, y, x_new, y_new = nxt, cur, x_new, y_new, x, y
        if on_iterate is not None:
            on_iterate(k, x, y)
        if step_tol > 0 and _step_norm(x, y, x_new, y_new) <= step_tol:
            break
    # x_last, y_last: views of this run's arrays, which no later run writes
    x_acc, y_acc = split(acc)
    return SapdRunResult(
        x_avg=x_acc / weight, y_avg=y_acc / weight, x_last=x, y_last=y,
        last_step_norm=_step_norm(x, y, x_new, y_new), iterations=k + 1,
    )


def sapd_run(p: ProblemSpec, params: SapdParams, x0, y0, rng,
             step_tol: float = 0.0,
             on_iterate: Optional[Callable] = None) -> SapdRunResult:
    """Run n_inner iterations from (x0, y0); rng = None uses exact gradients.

    x0 of shape (R, n) with a list of R generators runs R replicas in
    lockstep, on a problem that takes replica stacks (module docstring;
    takes_replica_stacks); y0 is (R, m), or one (m,) start for all.

    step_tol > 0 allows an early exit once ||z_{k+1} - z_k|| falls below it
    (deterministic prox-evaluation use); the averaged output always covers
    exactly the iterations performed.  With an rng, an early exit leaves the
    generator past draws of iterations that never ran, since draws come in
    blocks of many iterations.  on_iterate, if given, is called as
    on_iterate(k, x_{k+1}, y_{k+1}) after each iteration, with the solver's
    own arrays: copy what you keep.
    """
    if np.shape(x0)[:-1] != _replicas(rng):
        raise ConfigurationError("a list of R generators runs an (R, n) stack of "
                                 "starts, one generator or None a 1-D start")
    return _inner_loop(p, params, _stochastic_gradient(p, params, rng),
                       x0, y0, step_tol, on_iterate)
