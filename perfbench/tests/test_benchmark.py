import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_follows_the_format():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    import workloads

    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.NAMES)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_the_spec(trace, key):
    proc = _run(ROOT, "--workload", "dro-vr", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:  # the human-readable lines name every metric too
        assert f"  {name} = " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "quad-wcsc", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
