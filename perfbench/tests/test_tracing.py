import threading

import numpy as np
import pytest

import tracing


class FakeClock:
    """Advances only when told to; the same clock serves wall and CPU time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock, cpu_clock=clock)
    with tr.span("outer"):
        clock.now += 1.0
        with tr.span("child"):
            clock.now += 2.0
            with tr.span("grandchild"):
                clock.now += 4.0
        clock.now += 8.0
        with tr.span("child"):
            clock.now += 16.0
    stats, _ = tr.summary()
    assert list(stats["outer"].durations) == [31.0]
    assert stats["outer"].self_s == 31.0 - 6.0 - 16.0
    assert list(stats["child"].durations) == [6.0, 16.0]
    assert stats["child"].self_s == 2.0 + 16.0
    assert stats["grandchild"].self_s == 4.0
    assert stats["outer"].cpu_s == 31.0


def test_spans_close_in_order():
    tr = tracing.Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        tr.close(outer)


def test_each_thread_has_its_own_stack():
    tr = tracing.Tracer()
    opened = threading.Barrier(2, timeout=10)
    parents = {}

    def work(name):
        with tr.span(name):
            opened.wait()  # both threads hold an open span now
            with tr.span(name + ".child"):
                parents[name] = tr.find(("a", "b"))[0]
            opened.wait()

    threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert parents == {"a": "a", "b": "b"}
    stats, _ = tr.summary()
    for name in ("a", "b"):
        assert stats[name].calls == 1
        assert stats[name].self_s == pytest.approx(
            stats[name].durations[0] - stats[name + ".child"].durations[0])
        assert len(stats[name].threads) == 1
    assert stats["a"].threads != stats["b"].threads


def _attributes():
    return [(owner, attr, getattr(owner, attr))
            for owner, attr, _ in tracing._swaps(tracing.Tracer())]


def test_installed_swaps_and_restores_every_attribute():
    before = _attributes()
    assert len(before) == 10
    with tracing.installed(tracing.Tracer()):
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_installed_restores_after_an_error():
    before = _attributes()
    with pytest.raises(ValueError):
        with tracing.installed(tracing.Tracer()):
            raise ValueError
    assert [getattr(o, a) for o, a, _ in before] == [orig for _, _, orig in before]


def test_traced_solve_matches_untraced_and_counts_draws():
    from sapdplus import FixedT, OuterConfig, datasets, sapd_plus_run, theorem1_schedule
    from sapdplus.problem import with_gaussian_noise

    qs = datasets.make_quadratic_saddle(4, 3, 1.0, 0.5, np.random.default_rng(0))
    p = with_gaussian_noise(qs.problem, 0.1, 0.1)
    sched = theorem1_schedule(p.smoothness, p.convexity, p.noise, 1.0, 1.0).sapd_params()
    cfg = OuterConfig(t_outer=3, schedule=sched, stop=FixedT())
    x0, y0 = np.ones(4), np.zeros(3)
    plain = sapd_plus_run(p, cfg, x0, y0, np.random.default_rng(1))
    tr = tracing.Tracer()
    with tracing.installed(tr):
        traced = sapd_plus_run(tracing.traced_problem(tr, p), cfg, x0, y0,
                               np.random.default_rng(1))
    assert np.array_equal(plain.x, traced.x) and np.array_equal(plain.y, traced.y)
    stats, counters = tr.summary()
    assert counters["draws"] == traced.oracle_calls
    assert counters["sapd.iterations"] == 3 * sched.n_inner
    assert stats["guard"].calls == 3 * sched.n_inner
    assert stats["stage.sapd"].calls == 3
