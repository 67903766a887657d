"""The benchmark's span tracer wraps archspace functions by name; every name
it lists must still resolve, or a traced benchmark run fails at install."""

import importlib
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
        assert member in vars(getattr(module, cls_name)), attr
    else:
        assert callable(getattr(module, attr)), attr
