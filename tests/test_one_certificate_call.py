"""A schedule meets its matrix inequality in one place.

`params.certify` is the one body of the certificate: it alone assembles G
(`_assemble_g`), from the fields of a SapdParams or VrParams tuple.
`build_lmi` and `build_vr_lmi` are the benchmark's spellings of it: they
build that tuple from loose arguments and return `certify(...)`, so the
tuple's type makes their range checks.  Nothing inside `src/sapdplus` calls
them; a call there would spell the certificate out again, field by field.
No module raises a bare RuntimeError either: a closed-form rule that gives
no schedule raises InfeasibleScheduleError naming the quantity, which the
CLI reports with exit 2, where a RuntimeError would end in a traceback.
"""

import ast
from pathlib import Path

import pytest

from sapdplus.errors import ConfigurationError
from sapdplus.params import build_lmi
from sapdplus.problem import ConvexityModuli, SmoothnessConstants

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sapdplus"
BUILDERS = {"build_lmi", "build_vr_lmi"}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _strays(path):
    """(line, what) of each builder call, each _assemble_g call outside
    params.certify and each raise of a bare RuntimeError in the module at
    path."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Call) and (
                _called_name(node) in BUILDERS
                or _called_name(node) == "_assemble_g" and function != "params.certify"):
            found.append((node.lineno, f"{_called_name(node)} called in {function}"))
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                found.append((node.lineno, "bare RuntimeError raised"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_lmi_calls_are_made_by_certify_alone_and_no_bare_runtime_error():
    strays = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := _strays(path))}
    assert strays == {}


def test_the_guard_sees_a_stray_call_and_a_bare_raise(tmp_path):
    stray = tmp_path / "params.py"
    stray.write_text("def f(p):\n    return params.build_lmi(1)\n\n\n"
                     "def g():\n    raise RuntimeError('x')\n\n\n"
                     "def certify(t):\n    return build_vr_lmi(t)\n\n\n"
                     "def h(t):\n    return _assemble_g(t)\n")
    assert _strays(stray) == [(2, "build_lmi called in params.f"),
                              (6, "bare RuntimeError raised"),
                              (10, "build_vr_lmi called in params.certify"),
                              (14, "_assemble_g called in params.h")]


def test_build_lmi_refuses_what_sapd_params_refuses():
    # build_lmi once took any theta >= 0
    with pytest.raises(ConfigurationError, match=r"theta must lie in \[0, 1\]"):
        build_lmi(0.1, 0.1, 1.5, 1.0, 0.0, 1.0, SmoothnessConstants(1.0, 1.0, 1.0, 1.0),
                  ConvexityModuli(1.0, 1.0))
