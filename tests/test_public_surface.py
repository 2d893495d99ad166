"""The names other code looks up on grouplie: the package's __all__ and the
boundaries that perfbench/tracer.py wraps.  The tracer resolves each boundary
when it is installed, so deleting or renaming one of them breaks every
traced benchmark run; these tests fail first.  The package's own modules
import no name that they do not use."""

import ast
import importlib.util
from pathlib import Path

import grouplie

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert [name for name in grouplie.__all__ if not hasattr(grouplie, name)] == []


def test_every_traced_boundary_resolves():
    tracer = load_tracer()
    assert tracer.BOUNDARIES
    for mod_name, qual in tracer.BOUNDARIES:
        module = getattr(grouplie, mod_name)
        if "." in qual:
            # the tracer rebinds a method on its defining class, via vars()
            cls_name, meth = qual.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{mod_name}.{qual}"
        else:
            assert callable(getattr(module, qual, None)), f"{mod_name}.{qual}"
    # the scalar operation counters wrap these two methods
    assert {"__mul__", "inverse"} <= set(vars(grouplie.cyclo.CycloScalar))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads; a name listed in its
    __all__ counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("from __future__ import annotations\n"
                          "import os, sys as system\nfrom a import b, c\n"
                          "__all__ = ['c']\nos.getcwd()\n") == ["system", "b"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted((ROOT / "src" / "grouplie").glob("*.py"))}
    assert {name: unused for name, unused in found.items() if unused} == {}
