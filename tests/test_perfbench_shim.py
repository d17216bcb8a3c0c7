"""The benchmark's tracing shim over the real modules.

A traced benchmark run (`python3 perfbench/run.py --trace 1`) swaps module
attributes of the package for timing wrappers.  A rename of any of them, or
a call that bypasses one, would break the traced run or silently zero one of
its per-layer figures; these checks fail first.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)
    yield importlib.import_module("tracing")
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_every_swapped_attribute_is_restored(tracing):
    swaps = tracing._swaps(tracing.Tracer())
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    assert len(before) == len(swaps) > 0
    with tracing.installed(tracing.Tracer()):
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_workloads_import_and_build(tracing):
    workloads = importlib.import_module("workloads")
    for name in workloads.NAMES:
        assert workloads.make(name, PERFBENCH.parent).name == name


def test_smoothing_path_runs_through_the_shims(tracing):
    from sapdplus import datasets
    from sapdplus.outer import smooth_then_solve

    # the bilinear-wcmc run itself, to its target: checked every 10 stages,
    # met at the first check
    toy = datasets.make_bilinear_box_toy(c=10.0)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        result, _ = smooth_then_solve(toy.problem, 1.0, np.ones(1), np.zeros(1),
                                      np.random.default_rng(0))
    stats, counters = tr.summary()
    assert result.stages_run == 10
    assert result.stages[-1].stationarity <= 1.0 / (2 * np.sqrt(6))
    assert stats["smooth_dual"].calls == 1
    assert stats["shifted_subproblem"].calls == 10
    assert stats["stage.sapd"].calls == 10
    assert stats["moreau_stationarity"].calls == 1
    # the nested solves of moreau_stationarity pass the guard too
    assert stats["guard"].calls > counters["sapd.iterations"] > 0


def test_vr_path_runs_through_the_shims(tracing):
    # the VR stage, the guard inside the one inner loop and the refresh batches
    # must all reach the traced run's per-layer figures
    from sapdplus import datasets
    from sapdplus.outer import OuterConfig, sapd_plus_run
    from sapdplus.vr import VrParams

    stages, n, q = 3, 11, 4
    params = VrParams(tau=0.05, sigma=0.05, b=40, b_x=3, b_y=2, q=q, n_inner=n,
                      mu_x=1.0)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        ds = datasets.synthetic_logistic_dataset(40, 5, np.random.default_rng(1))
        inst = datasets.build_dro(ds, sgrad_batch=3)
        result = sapd_plus_run(inst.problem, OuterConfig(t_outer=stages,
                                                         schedule=params, vr=True),
                               np.zeros(5), np.full(40, 1 / 40),
                               np.random.default_rng(2), fs=inst.finite_sum)
    stats, counters = tr.summary()
    assert result.stages_run == stages
    assert stats["stage.vr"].calls == stages
    assert stats["guard"].calls == counters["vr.iterations"] == stages * n
    assert counters["vr.refreshes"] == stages * (-(-n // q) + n // q + 1)
