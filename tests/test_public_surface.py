"""The names other code looks up on grouplie: the package's __all__ and the
boundaries that perfbench/tracer.py wraps.  The tracer resolves each boundary
when it is installed, so deleting or renaming one of them breaks every
traced benchmark run; these tests fail first."""

import importlib.util
from pathlib import Path

import grouplie

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
