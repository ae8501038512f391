"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
by name, and its install step raises on a name that is gone. This test
resolves every target the same way, so a rename fails the test suite
instead of only the traced benchmark run."""

import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for module_name, qualname, _, _, yields in targets:
        module = importlib.import_module("qtnabla." + module_name)
        *owner, attr = qualname.split(".")
        if owner:
            # methods are looked up in the class __dict__ itself
            assert attr in vars(getattr(module, *owner)), qualname
            continue
        fn = getattr(module, attr, None)
        assert callable(fn), qualname
        if yields:
            assert inspect.isgeneratorfunction(fn), qualname
