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

    toy = datasets.make_bilinear_box_toy(c=10.0)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        result, _ = smooth_then_solve(toy.problem, 1.0, np.ones(1), np.zeros(1),
                                      np.random.default_rng(0), t_outer=2)
    stats, counters = tr.summary()
    assert stats["smooth_dual"].calls == 1
    assert stats["shifted_subproblem"].calls == 2
    assert stats["stage.sapd"].calls == 2
    assert stats["moreau_stationarity"].calls == 1
    # the nested solves of moreau_stationarity pass the guard too
    assert stats["guard"].calls > counters["sapd.iterations"] > 0
    assert result.stages_run == 2
