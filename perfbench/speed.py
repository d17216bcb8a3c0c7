"""Machine-speed probe: rescales wall times to one reference speed.

The 2-vCPU VM this benchmark was tuned on switches between a fast and a
slow mode, about 1.6x apart, every few to tens of seconds: one 200-step
inner stage of quad-wcsc took 7.5 ms in most of one 20-s window and 12 ms
in most of another.  Medians of 25-s runs of the same code moved by up to
a third from run to run.  Medians and minima over a run do not remove
that, because some windows have no fast moment at all.

So while the benchmark measures, an interval timer (SIGALRM) interrupts
the main thread every ``PERIOD`` seconds and its handler times a fixed
block of small-array work by the CPU time of the main thread.  The
handler runs between two bytecodes of the program, on the CPU the
program runs on.  (A probe on a second thread ran on the other vCPU,
whose speed could differ by 15% from the program's.)  A wall time measured over ``[start, end]``
is scaled by ``REFERENCE_S / (mean block time of the probes taken in
it)``: the result, still in seconds, is the time the program would take
on a machine on which the block takes ``REFERENCE_S``.  The block never
calls the program and touches none of its state, so a change to the
program moves scaled times just as it moves wall times.  Each probe takes
about 0.2 ms, which adds about 1% to every wall time, the same on every
run.
"""

import bisect
import signal
import time

import numpy as np

PERIOD = 0.02  # seconds between probes
REFERENCE_S = 1.5e-4  # about the block's CPU time in the fast mode of that VM
MIN_PROBES = 3  # an interval with fewer probes in it borrows its nearest ones
clock = time.perf_counter


_RAMP = np.linspace(0.0, 1.0, 10)


def reference_block():
    """The fixed work each probe times: small-array numpy updates in a
    Python loop, the kind of work an inner iteration does."""
    x, acc = _RAMP.copy(), 0.0
    for i in range(100):
        x = 0.5 * x + _RAMP
        acc += float(x[i % 10])
    return acc


class SpeedProbe:
    """Probes the machine's speed from a SIGALRM handler while active.

    Use as a context manager, from the main thread, around the measured
    code; call ``scale`` only after it has exited.
    """

    def __init__(self, period=PERIOD):
        self.period = period
        self.ends = []  # perf_counter when each probe finished, ascending
        self.cpu_s = []  # CPU seconds of each probe's block
        self._previous = None

    def _probe(self, _signum, _frame):
        start = time.thread_time()
        reference_block()
        cpu = time.thread_time() - start
        self.ends.append(clock())
        self.cpu_s.append(cpu)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def block_s(self, start, end):
        """Mean block CPU time of the probes that ended in [start, end].

        An interval with fewer than MIN_PROBES probes uses the MIN_PROBES
        probes nearest to its midpoint instead.
        """
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        if hi - lo < MIN_PROBES:
            if len(self.ends) < MIN_PROBES:
                raise RuntimeError(f"only {len(self.ends)} speed probes were taken")
            mid = bisect.bisect_left(self.ends, 0.5 * (start + end))
            lo = min(max(mid - MIN_PROBES // 2, 0), len(self.ends) - MIN_PROBES)
            hi = lo + MIN_PROBES
        return sum(self.cpu_s[lo:hi]) / (hi - lo)

    def scale(self, seconds, start, end):
        """``seconds`` measured within [start, end], at the reference speed."""
        return seconds * REFERENCE_S / self.block_s(start, end)
