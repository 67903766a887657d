"""The benchmark's span tracer wraps archspace functions by name; every name
it lists must still resolve to something it can wrap, or a traced benchmark
run fails at install."""

import functools
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

# run_path executes the file without importing it as a module or caching bytecode.
TARGETS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "spans.py"))["TARGETS"]


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_trace_target_resolves(target):
    _, _, modname, attr = target
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, member = attr.split(".")
        raw = vars(getattr(module, cls_name)).get(member)
        # what the tracer's member wrapper handles: a cached property (such
        # as BlockGraph.digest), a static method or a plain method
        assert isinstance(raw, (functools.cached_property, staticmethod)) or inspect.isfunction(raw), attr
    else:
        assert callable(getattr(module, attr)), attr
