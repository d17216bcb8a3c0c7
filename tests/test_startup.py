"""What `import sapdplus` and `import sapdplus.cli` load.

`import sapdplus` imports no numpy: its re-exports load on first access.
The CLI, when it is the program, loads numpy with one BLAS thread unless
the user set OPENBLAS_NUM_THREADS, pauses the garbage collector through its
imports and freezes every object at exit.  Each check that depends on what is
already imported runs in a fresh interpreter on this checkout's `src/`.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

# numpy first: this process is a host, for which the CLI is a library
import numpy  # noqa: F401
import pytest

import sapdplus
from sapdplus import cli

SRC = Path(__file__).resolve().parents[1] / "src"
# every module but the CLI, which a program imports by name (see __init__.py)
SUBMODULES = sorted(f.stem for f in (SRC / "sapdplus").glob("*.py")
                    if f.stem not in ("__init__", "cli"))


def run_python(*argv, blas_threads=None, cwd=None):
    """stdout of a fresh interpreter run with argv, with OPENBLAS_NUM_THREADS
    set to blas_threads, or removed when that is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        assert run_python("-c", "import sys, sapdplus; print('numpy' in sys.modules)") == (
            "False\n")

    def test_every_submodule_resolves_after_a_bare_import(self):
        out = run_python("-c", "import sys, sapdplus; "
                         "print(*(getattr(sapdplus, n).__name__ for n in sys.argv[1:]))",
                         *SUBMODULES)
        assert "outer" in SUBMODULES
        assert out.split() == [f"sapdplus.{name}" for name in SUBMODULES]

    def test_the_cli_is_not_an_attribute_of_a_bare_import(self):
        assert run_python("-c", "import sapdplus; print(hasattr(sapdplus, 'cli'))") == (
            "False\n")

    def test_star_import_binds_all_names(self):
        out = run_python("-c", "import sapdplus; ns = {}; exec('from sapdplus import *', ns); "
                         "print(sorted(set(sapdplus.__all__) - ns.keys()))")
        assert out == "[]\n"

    def test_each_name_is_its_defining_modules_object(self):
        for name in sapdplus.__all__:
            obj = getattr(sapdplus, name)
            home = sys.modules[obj.__module__]
            assert home.__name__.startswith("sapdplus.")
            assert getattr(home, name) is obj, name

    def test_unknown_name_raises_attribute_error(self):
        assert not hasattr(sapdplus, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            sapdplus.no_such_name

    def test_dir_lists_names_and_submodules(self):
        assert set(sapdplus.__all__) | set(SUBMODULES) <= set(dir(sapdplus))


# the setting a program sees, and its thread count after a product large
# enough for OpenBLAS to thread
PROBE = ("import os, numpy; a = numpy.ones((256, 256)); a @ a; t = '/proc/self/task'; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
         "len(os.listdir(t)) if os.path.isdir(t) else 'unknown')")


class TestBlasDefault:
    def test_cli_loads_numpy_with_one_blas_thread(self):
        # the console script imports sapdplus.cli as a module, as here
        threads = run_python("-c", "import sapdplus.cli; " + PROBE).split()[1]
        assert threads in ("1", "unknown")

    def test_the_cli_leaves_no_setting_behind(self):
        # a child process of the CLI, or of a host that imported it first,
        # starts its BLAS pool as it would without the CLI
        out = run_python("-c", "import subprocess, sys, sapdplus.cli; "
                         "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True); "
                         + PROBE, PROBE)
        assert [line.split()[0] for line in out.splitlines()] == ["None", "None"]

    def test_a_user_setting_wins(self):
        out = run_python("-c", "import sapdplus.cli; " + PROBE, blas_threads="2")
        assert out.split()[0] == "2"

    def test_a_host_that_imported_numpy_keeps_its_environment(self):
        out = run_python("-c", "import numpy, sapdplus.cli; " + PROBE)
        assert out.split()[0] == "None"

    def test_the_thread_count_moves_no_number(self, tmp_path):
        # the benchmark's DRO command: one BLAS thread changes only its timing;
        # both runs write to the same relative path, so the meta files agree
        # on `out` too
        seen = []
        for threads in ("1", "2"):
            run_dir = tmp_path / threads
            run_dir.mkdir()
            run_python("-m", "sapdplus.cli", "solve", "--problem", "dro", "--batch", "10",
                       "--reps", "2", "--t-outer", "5", "--stat-every", "0",
                       "--out", "trace.csv", blas_threads=threads, cwd=run_dir)
            trace = (run_dir / "trace.csv").read_text().splitlines()
            rows = [[c for i, c in enumerate(line.split(",")) if i != 3] for line in trace]
            seen.append((rows, (run_dir / "trace.csv.meta.txt").read_text()))
        assert len(seen[0][0]) == 1 + 2 * 6  # header, stages 0..5 of two reps
        assert seen[0] == seen[1]


# a fresh interpreter's collections while `import sapdplus.cli` runs (young
# ones, older ones), the objects in its young and middle generations after
# it, its collector's state before and after, and the change in its exit
# handlers and in its freeze count
GC_PROBE = ("import atexit, gc; seen = []; "
            "gc.callbacks.append(lambda phase, info: seen.append(info['generation']) "
            "if phase == 'start' else None); "
            "was, n, frozen = gc.isenabled(), atexit._ncallbacks(), gc.get_freeze_count(); "
            "import sapdplus.cli; gc.callbacks.clear(); "
            "print(seen.count(0), len(seen) - seen.count(0), "
            "len(gc.get_objects(0)) + len(gc.get_objects(1)), was, gc.isenabled(), "
            "atexit._ncallbacks() - n, gc.get_freeze_count() - frozen)")


class TestCollectorPolicy:
    def test_the_program_pauses_the_collector_through_its_imports(self):
        # without the pause the import made 32 young and 2 older collections;
        # with it, only those as the package loads, before cli.py runs (one
        # here).  The about 23,000 objects the imports made wait in the oldest
        # generation, not for a young collection as the collector resumes.
        # The exit handler freezes every object, so that finalization
        # collects none
        out = run_python("-c", GC_PROBE + "; atexit._run_exitfuncs(); "
                         "print(gc.get_freeze_count() > 0)").splitlines()
        young, older, waiting, *rest = out[0].split()
        assert int(young) <= 2 and older == "0"
        assert int(waiting) < 2000
        assert rest == ["True", "True", "1", "0"]
        assert out[1] == "True"

    @pytest.mark.parametrize("state", ["gc.enable()", "gc.disable()"])
    def test_a_host_that_imported_numpy_keeps_its_collector(self, state):
        # the import may collect; it leaves the state, the freeze count and
        # the exit handlers as they were
        out = run_python("-c", f"import gc, numpy; {state}; " + GC_PROBE)
        was = "True" if state == "gc.enable()" else "False"
        assert out.split()[3:] == [was, was, "0", "0"]

    def test_a_program_that_disabled_its_collector_keeps_it_off(self):
        out = run_python("-c", "import gc; gc.disable(); " + GC_PROBE)
        young, older, _, *rest = out.split()
        assert (young, older, rest) == ("0", "0", ["False", "False", "1", "0"])

    def test_a_program_keeps_the_objects_it_froze(self):
        # unfreeze would release them, so the imports' objects stay young
        out = run_python("-c", "import gc; gc.freeze(); " + GC_PROBE)
        assert out.split()[3:] == ["True", "True", "1", "0"]

    @pytest.mark.parametrize("argv", [
        pytest.param(("--problem", "dro", "--batch", "10", "--reps", "4", "--t-outer", "3",
                      "--stat-every", "2", "--seed", "5"), id="dro-lockstep"),
        pytest.param(("--problem", "dro", "--algo", "sapd-plus-vr", "--schedule", "manual",
                      "--tau", "0.05", "--sigma", "0.05", "--n-inner", "20", "--b", "100",
                      "--b-x", "5", "--b-y", "5", "--q", "5", "--t-outer", "3",
                      "--reps", "2", "--seed", "5"), id="vr")])
    def test_program_and_library_write_the_same_files(self, tmp_path, monkeypatch, argv):
        # the process that exits with a frozen collector loses no write: its
        # trace (but wall_ms) and meta file are those of cli.main in a host
        argv = ["solve", *argv, "--out", "trace.csv"]
        assert not cli._PROGRAM
        seen = []
        for where in ("program", "library"):
            run_dir = tmp_path / where
            run_dir.mkdir()
            if where == "program":
                run_python("-m", "sapdplus.cli", *argv, cwd=run_dir)
            else:
                monkeypatch.chdir(run_dir)
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
            trace = (run_dir / "trace.csv").read_text().splitlines()
            rows = [[c for i, c in enumerate(line.split(",")) if i != 3] for line in trace]
            seen.append((rows, (run_dir / "trace.csv.meta.txt").read_text()))
        assert len(seen[0][0]) > 1 + 4
        assert seen[0] == seen[1]
