"""Span tracer and the timing shims the traced benchmark run installs.

Spans are kept per thread: each thread has its own stack of open spans, so
the CLI's thread pool cannot mix up parents.  A span records wall time
(``perf_counter``) and CPU time of its thread (``thread_time``); the
difference is time the thread spent waiting, mostly for the GIL.  A span's
self time is its duration minus the durations of its direct children.

Only aggregates are kept (one duration array per span name plus sums and
counters), because a traced quadratic solve opens hundreds of thousands of
spans.

The shims wrap callables of ``sapdplus`` from the outside: oracle and prox
callables of a ProblemSpec / FiniteSumSpec are wrapped with
``dataclasses.replace``; module attributes are swapped and restored.  They
only time and count calls and never touch an rng, so a traced solve draws
the same samples as an untraced one.
"""

import dataclasses
import threading
import time
from array import array
from contextlib import contextmanager

STAGE_SPANS = ("stage.sapd", "stage.vr")
X_ORACLES = ("grad_x", "sgrad_x", "batch_grad_x")
Y_ORACLES = ("grad_y", "sgrad_y", "batch_grad_y")


class SpanStats:
    """Aggregate of every closed span with one name."""

    def __init__(self):
        self.durations = array("d")
        self.self_s = 0.0
        self.cpu_s = 0.0
        self.threads = set()
        self.metas = []

    @property
    def calls(self):
        return len(self.durations)

    @property
    def total_s(self):
        return sum(self.durations)

    def merge(self, other):
        self.durations.extend(other.durations)
        self.self_s += other.self_s
        self.cpu_s += other.cpu_s
        self.threads |= other.threads
        self.metas.extend(other.metas)


class _ThreadState:
    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []
        self.stats = {}
        self.counters = {}


class Tracer:
    """Collects spans and counters from any number of threads."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def open(self, name, meta=None):
        """Push a span on this thread's stack; returns the frame to close."""
        frame = [name, self.clock(), self.cpu_clock(), 0.0, meta]
        self._state().stack.append(frame)
        return frame

    def close(self, frame):
        end, cpu_end = self.clock(), self.cpu_clock()
        state = self._state()
        if not state.stack or state.stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        state.stack.pop()
        name, start, cpu_start, child, meta = frame
        duration = end - start
        if state.stack:
            state.stack[-1][3] += duration
        stats = state.stats.get(name)
        if stats is None:
            stats = state.stats[name] = SpanStats()
        stats.durations.append(duration)
        stats.self_s += duration - child
        stats.cpu_s += cpu_end - cpu_start
        stats.threads.add(state.ident)
        if meta is not None:
            stats.metas.append(meta)

    @contextmanager
    def span(self, name, meta=None):
        frame = self.open(name, meta)
        try:
            yield frame
        finally:
            self.close(frame)

    def find(self, names):
        """Innermost open span on this thread whose name is in ``names``."""
        for frame in reversed(self._state().stack):
            if frame[0] in names:
                return frame
        return None

    def count(self, key, amount=1):
        counters = self._state().counters
        counters[key] = counters.get(key, 0) + amount

    def summary(self):
        """(stats by span name, counters), merged over all threads."""
        stats, counters = {}, {}
        with self._lock:
            states = list(self._states)
        for state in states:
            if state.stack:
                raise RuntimeError(f"span {state.stack[-1][0]!r} still open")
            for name, st in state.stats.items():
                stats.setdefault(name, SpanStats()).merge(st)
            for key, val in state.counters.items():
                counters[key] = counters.get(key, 0) + val
        return stats, counters


def _timed(tracer, name, fn, after=None, meta_of=None):
    """Wrap ``fn`` in a span; ``after(result, args)`` counts what it returned."""

    def wrapper(*args, **kwargs):
        frame = tracer.open(name, meta_of(args) if meta_of else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(out, args)
        return out

    return wrapper


def _oracle(tracer, name, fn, draws_of, after=None):
    """Oracle wrapper; calls made inside an inner-solver stage count as draws."""

    def wrapper(*args):
        in_stage = tracer.find(STAGE_SPANS) is not None
        frame = tracer.open(name)
        try:
            out = fn(*args)
        finally:
            tracer.close(frame)
        if in_stage:
            tracer.count("draws", draws_of(args))
        if after is not None:
            after(args)
        return out

    return wrapper


def traced_problem(tracer, p):
    """Copy of a ProblemSpec whose oracles and prox maps open spans.

    A deterministic gradient called inside a stage is the solver's fallback
    for a missing stochastic oracle, so it counts as one draw.
    """
    batch = p.oracle_batch
    one = lambda _args: 1  # noqa: E731
    per_call = lambda _args: batch  # noqa: E731
    fields = dict(
        grad_x=_oracle(tracer, "grad_x", p.grad_x, one),
        grad_y=_oracle(tracer, "grad_y", p.grad_y, one),
        prox_f=_timed(tracer, "prox_f", p.prox_f),
        prox_g=_timed(tracer, "prox_g", p.prox_g),
    )
    if p.sgrad_x is not None:
        fields["sgrad_x"] = _oracle(tracer, "sgrad_x", p.sgrad_x, per_call)
    if p.sgrad_y is not None:
        fields["sgrad_y"] = _oracle(tracer, "sgrad_y", p.sgrad_y, per_call)
    return dataclasses.replace(p, **fields)


def traced_finite_sum(tracer, fs):
    """Copy of a FiniteSumSpec whose batch gradients open spans and count rows."""

    def batch_oracle(name, fn):
        def after(args):
            rows = len(args[0])
            tracer.count(name + ".rows", rows)
            vr = tracer.find(("stage.vr",))
            if vr is not None and rows == vr[4]["b"]:
                tracer.count("vr.refreshes")

        return _oracle(tracer, name, fn, lambda args: len(args[0]), after)

    return dataclasses.replace(
        fs,
        batch_grad_x=batch_oracle("batch_grad_x", fs.batch_grad_x),
        batch_grad_y=batch_oracle("batch_grad_y", fs.batch_grad_y),
    )


def _swaps(tracer):
    """(owner, attribute, wrapper factory) for every attribute the run swaps."""
    from sapdplus import cli, datasets, outer, sapd, vr

    def stage(name, counter):
        def make(fn):
            def after(res, _args):
                tracer.count(counter, res.iterations)
                rep = tracer.find(("rep",))
                if rep is not None:
                    rep[4]["x"] = res.x_avg

            meta_of = (lambda args: {"b": args[2].b}) if name == "stage.vr" else None
            return _timed(tracer, name, fn, after, meta_of)

        return make

    def moreau(fn):
        def after(est, _args):
            tracer.count("moreau.inner_iterations", est.inner_iterations)
            tracer.count("moreau.unreliable", int(not est.reliable))

        return _timed(tracer, "moreau_stationarity", fn, after)

    def build_dro(fn):
        def wrapper(*args, **kwargs):
            inst = fn(*args, **kwargs)
            return dataclasses.replace(
                inst, problem=traced_problem(tracer, inst.problem),
                finite_sum=traced_finite_sum(tracer, inst.finite_sum))

        return wrapper

    def run_single_rep(fn):
        return _timed(tracer, "rep", fn, meta_of=lambda args: {"rep": args[0]})

    return [
        (outer, "sapd_run", stage("stage.sapd", "sapd.iterations")),
        (outer, "vr_sapd_run", stage("stage.vr", "vr.iterations")),
        (outer, "moreau_stationarity", moreau),
        (outer, "shifted_subproblem",
         lambda fn: _timed(tracer, "shifted_subproblem", fn)),
        (outer, "smooth_dual", lambda fn: _timed(tracer, "smooth_dual", fn)),
        (sapd, "_guard", lambda fn: _timed(tracer, "guard", fn)),
        (vr, "_guard", lambda fn: _timed(tracer, "guard", fn)),
        (datasets, "build_dro", build_dro),
        (datasets.DroInstance, "robust_loss",
         lambda fn: _timed(tracer, "robust_loss", fn)),
        (cli, "_run_single_rep", run_single_rep),
    ]


@contextmanager
def installed(tracer):
    """Swap every shimmed module attribute for a traced wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, make in _swaps(tracer):
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
