"""The names other code looks up on grouplie: the package's __all__ and the
boundaries that perfbench/tracer.py wraps.  The tracer resolves each boundary
when it is installed, so deleting or renaming one of them breaks every
traced benchmark run; these tests fail first.  The package's own modules
import no name that they do not use and no private name of another of
them, and define no function, class or method that nothing names."""

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


def private_imports(source: str) -> list[str]:
    """The underscore names `source` imports from a grouplie module."""
    return [a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "grouplie")
            for a in node.names if a.name.startswith("_")]


def test_private_imports_finds_a_private_name_of_the_package():
    assert private_imports("from __future__ import annotations\nfrom os import _exit\n"
                           "from .liealg import _rows, lie_basis\nfrom . import cyclo\n"
                           "from grouplie.groups import _table\n") == ["_rows", "_table"]


def test_no_module_imports_a_private_name_of_another():
    # a private helper is its module's own: another module that needs it
    # calls a public function of that module instead
    found = {path.name: private_imports(path.read_text())
             for path in sorted((ROOT / "src" / "grouplie").glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def defined_names(source: str) -> list[str]:
    """The top-level functions and classes of `source` and the methods of
    its classes, dunder methods left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def referenced_names(source: str) -> set[str]:
    """Every name `source` reads: a Name, an Attribute, or an identifier in
    a string constant, each part of a dotted one too (the tracer names its
    boundaries that way)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(part for part in node.value.split(".") if part.isidentifier())
    return out


def test_defined_and_referenced_names_read_the_ast():
    source = ("class A:\n    def f(self): return g\n    def __len__(self): return 0\n"
              "def g(): pass\nx = 'mod.A.h'\ny.attr\n")
    assert defined_names(source) == ["A", "f", "g"]
    assert referenced_names(source) == {"g", "mod", "A", "h", "x", "y", "attr"}


def test_every_function_class_and_method_of_src_is_referenced():
    # a helper that nothing calls any more is dead code: the package, the
    # tests, the benchmark or the scripts must name it somewhere
    sources = [path.read_text() for folder in ("src", "tests", "perfbench", "scripts")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    referenced = set().union(*map(referenced_names, sources))
    defined = {name for path in sorted((ROOT / "src" / "grouplie").glob("*.py"))
               for name in defined_names(path.read_text())}
    assert sorted(defined - referenced) == []
