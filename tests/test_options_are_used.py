"""Census of the package's options: every defaulted parameter is set.

A function or method parameter of src/flagwalk with a default that no call
in src/, tests/, perfbench/ or scripts/ passes, by keyword or by position,
is an option nobody sets; its value belongs in the body as a constant.
Calls are matched by the callee's name (f(...) or obj.f(...)), so a name
that two functions share counts for both, and a call by class name counts
for that class's __init__.  A call with *args passes every positional
parameter and one with **kwargs every keyword.  No option is exempt.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flagwalk"
CALLERS = sorted({*(ROOT / "src").rglob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")})


def _defaulted(tree, module):
    """(key, callee name, positional index or None, parameter name) of every
    defaulted parameter; the index counts from the first argument a caller
    writes (after self or cls)."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" and cls else child.name
                where = f"{module}:{(cls + '.') if cls else ''}{child.name}"
                for i, p in enumerate(pos[len(pos) - len(a.defaults):],
                                      len(pos) - len(a.defaults)):
                    out.append((f"{where}:{p.arg}", name, i - skip, p.arg))
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        out.append((f"{where}:{p.arg}", name, None, p.arg))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _calls():
    """callee name -> [(positional count, keyword names, *args, **kwargs)]."""
    calls = defaultdict(list)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            star = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name].append((
                sum(not isinstance(a, ast.Starred) for a in node.args),
                {k.arg for k in node.keywords if k.arg is not None},
                star, any(k.arg is None for k in node.keywords)))
    return calls


def test_every_option_is_set_by_some_call():
    calls = _calls()
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for key, name, index, param in _defaulted(
                ast.parse(path.read_text(), str(path)), path.stem):
            if not any(kw or param in kws or (
                    index is not None and (star or index < npos))
                    for npos, kws, star, kw in calls[name]):
                unset.append(key)
    assert not unset, ("defaulted parameters no call sets (make them "
                       f"constants): {unset}")


def test_census_sees_options_set_by_position_keyword_and_class_name():
    tree = ast.parse("class C:\n"
                     "    def __init__(self, a, b=1):\n        pass\n"
                     "    def m(self, x=0, *, y=2):\n        pass\n"
                     "def f(p, q=3):\n    pass\n")
    got = {key: (name, index) for key, name, index, _ in
           _defaulted(tree, "mod")}
    assert got == {"mod:C.__init__:b": ("C", 1), "mod:C.m:x": ("m", 0),
                   "mod:C.m:y": ("m", None), "mod:f:q": ("f", 1)}


def test_every_default_is_relied_on_by_some_call():
    # the dual census: a default that every call overrides is never read,
    # so the parameter is required
    calls = _calls()
    overridden = []
    for path in sorted(PACKAGE.glob("*.py")):
        for key, name, index, param in _defaulted(
                ast.parse(path.read_text(), str(path)), path.stem):
            if not any(not kw and param not in kws and (
                    index is None or not star and index >= npos)
                    for npos, kws, star, kw in calls[name]):
                overridden.append(key)
    assert not overridden, ("defaults every call overrides (make the "
                            f"parameters required): {overridden}")
