"""Nothing in the package is there for the tests alone.

Every public top-level function and class of `src/sapdplus`, and every
public method of those classes, must be referenced by the code that runs:
another module of the package (not `__init__.py`, which only re-exports) or
the benchmark under `perfbench/`.  A reference from elsewhere in the
defining module counts too, so that a result type built by its own module
or a helper called by a sibling method passes, but not one from inside the
definition itself.  References are names, attribute names and string
constants (the benchmark's tracer swaps attributes by name).  A name kept
alive only by `tests/` fails; move it into the tests or delete it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sapdplus"


def _runtime_files():
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    return files + sorted((ROOT / "perfbench").rglob("*.py"))


def _public_definitions(tree):
    """(name, node) of public top-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _references(tree, skip=None):
    """Every name, attribute name, imported name and string constant in
    tree, leaving out the subtree `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_names():
    trees = {path: ast.parse(path.read_text()) for path in _runtime_files()}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        elsewhere = set().union(*(_references(t) for p, t in trees.items() if p != path))
        for name, node in _public_definitions(tree):
            if name not in elsewhere and name not in _references(tree, skip=node):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_runtime_caller():
    assert unreferenced_names() == []
