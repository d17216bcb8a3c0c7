import signal
import time

import pytest

import speed


def _probe(ends, cpu_s):
    probe = speed.SpeedProbe()
    probe.ends, probe.cpu_s = list(ends), list(cpu_s)
    return probe


def test_scale_uses_the_probes_inside_the_interval():
    # the machine runs at half the reference speed from t = 10 on
    probe = _probe(range(20), [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10)
    assert probe.scale(4.0, 1.0, 5.0) == pytest.approx(4.0)
    assert probe.scale(4.0, 12.0, 16.0) == pytest.approx(2.0)
    assert probe.block_s(8.0, 11.0) == pytest.approx(1.5 * speed.REFERENCE_S)


def test_short_interval_borrows_the_nearest_probes():
    probe = _probe(range(10), [float(i) for i in range(10)])
    assert probe.block_s(4.4, 4.6) == pytest.approx(5.0)  # probes 4, 5, 6
    assert probe.block_s(-5.0, -4.0) == pytest.approx(1.0)  # probes 0, 1, 2
    assert probe.block_s(50.0, 51.0) == pytest.approx(8.0)  # probes 7, 8, 9


def test_too_few_probes_is_an_error():
    with pytest.raises(RuntimeError, match="speed probes"):
        _probe([1.0], [1.0]).block_s(0.0, 2.0)


def test_probe_samples_and_stops():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.001) as probe:
        deadline = time.perf_counter() + 10.0
        while len(probe.cpu_s) < 3 and time.perf_counter() < deadline:
            sum(range(1000))
    taken = len(probe.cpu_s)
    time.sleep(0.01)
    assert taken >= 3 and len(probe.cpu_s) == taken  # no probe after exit
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert all(c > 0 for c in probe.cpu_s)
    assert probe.ends == sorted(probe.ends)
