"""No module or class body defines a name twice.

A second `def` or `class` of a name replaces the first, so the first never
runs: pytest collects only the last test of a name, and a caller reaches
only the last function.  Every module of src/flagwalk, tests and scripts is
read with ast; a name bound twice by def or class in one module or class
body fails the test.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted({*(ROOT / "src" / "flagwalk").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")})
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _shadowed(tree, where):
    """where:name of every name that a def or class in one body of tree
    (the module's, or a class's at any depth) binds more than once."""
    out = []
    for body, scope in [(tree.body, where)] + [
            (node.body, f"{where}.{node.name}") for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)]:
        seen = Counter(node.name for node in body if isinstance(node, _DEFS))
        out += [f"{scope}:{name}" for name, k in seen.items() if k > 1]
    return out


def test_no_definition_is_shadowed():
    shadowed = [key for path in MODULES for key in _shadowed(
        ast.parse(path.read_text(), str(path)), path.stem)]
    assert not shadowed, f"names defined twice, the first never runs: " \
                         f"{shadowed}"


def test_shadowing_is_seen_in_modules_and_classes_only():
    tree = ast.parse("def f():\n    pass\n"
                     "class C:\n    def m(self):\n        pass\n"
                     "    def m(self):\n        pass\n"
                     "def f():\n    def g():\n        pass\n"
                     "    def g():\n        pass\n")
    assert _shadowed(tree, "mod") == ["mod:f", "mod.C:m"]
