"""The benchmark reaches into archspace by name: its span tracer wraps
functions it lists, and its driver and workloads call module attributes.
Every such name must still resolve, so that a rename in the package fails
here and not in a benchmark run."""

import ast
import functools
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# run_path executes the file without importing it as a module or caching bytecode.
TARGETS = runpy.run_path(str(BENCH / "spans.py"))["TARGETS"]


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


def _archspace_names(path):
    """Every dotted name the file reads through a name bound to an archspace
    module: `import archspace`, `from archspace[.m] import n` and
    `x = importlib.import_module("archspace...")`."""
    tree = ast.parse(path.read_text())
    bound, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names if a.name.startswith("archspace"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("archspace"):
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"):
            bound.update((t.id, node.value.args[0].value) for t in node.targets)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                used.append(bound[root.id] + ast.unparse(node)[len(root.id):])
    return [*bound.values(), *used]


def _resolve(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):  # the longest importable prefix, then attributes
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


BENCH_NAMES = sorted({name for f in ("run.py", "workloads.py") for name in _archspace_names(BENCH / f)})


def test_bench_names_are_found():
    # names the workloads are known to read: a scan that missed them would check nothing
    for name in ("archspace.mutation.propose_step", "archspace.mutation.CostState.from_spec",
                 "archspace.proxy.score_network", "archspace.serialize.serialize",
                 "archspace.ops.Shape", "archspace.__file__"):
        assert name in BENCH_NAMES


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_bench_name_resolves(name):
    _resolve(name)
