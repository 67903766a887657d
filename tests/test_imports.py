"""Every module-level import in the package's modules is used, and so is
every module-level private name, and no module imports another's private name;
every test oracle is used.

A name an import binds must be referenced somewhere in its module.
``__init__.py`` is exempt: its imports are the package's re-exports.  A
private function, class or constant (a name with a leading underscore)
must be referenced by some module of the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "archspace"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}: {name}" for name in bound if name not in used]


def test_no_unused_module_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == []


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def test_no_orphaned_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*(_references(t) for t in trees.values()))
    orphans = [f"{name}: {d}" for name, t in trees.items() for d in _private_definitions(t)
               if d not in referenced]
    assert orphans == []


TESTS = Path(__file__).resolve().parent


def test_no_orphaned_oracles():
    """Every top-level function or class of ``_oracles.py`` is referenced by a
    test module or by another top-level statement there, so deleting an
    oracle leaves none of its helpers behind."""
    oracles = ast.parse((TESTS / "_oracles.py").read_text())
    referenced = set().union(*(_references(ast.parse(p.read_text(), filename=str(p)))
                               for p in TESTS.glob("*.py") if p.name != "_oracles.py"))
    orphans = []
    for node in oracles.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            others = set().union(*(_references(n) for n in oracles.body if n is not node))
            if node.name not in referenced | others:
                orphans.append(node.name)
    assert orphans == []


def test_no_module_imports_a_private_name():
    """A module reaches another only through its public names."""
    imported = [f"{p.name}: {alias.name}" for p in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def _scopes_naming(tree: ast.Module, name: str) -> list[str]:
    """The dotted name of the function or class around each reference to
    `name` (a bare name or an attribute), "<module>" at the top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                found.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_shape_store_and_the_oracles_infer_shapes():
    """Node shapes have one store, `BlockGraph.shapes`.  Besides it, only
    `block_cost` (the ledger's oracle) and `_template_shapes` (the template
    memo, which infers a root block of its own) may run `infer_shapes`, so no
    reader grows a second store."""
    users = {f"{p.name}: {scope}" for p in sorted(PACKAGE.glob("*.py"))
             for scope in _scopes_naming(ast.parse(p.read_text(), filename=str(p)), "infer_shapes")}
    assert users == {"graph.py: BlockGraph.shapes", "cost.py: block_cost", "mutation.py: _template_shapes"}


def test_the_cli_restates_no_bound_a_library_object_checks():
    """Run bounds are checked once, by the config or scoring check that holds
    the value; the CLI keeps minimums only for flags no library object checks."""
    from archspace import cli

    assert set(cli._FLAG_MINIMUM) == {"batch", "stem", "classes", "in_channels",
                                      "stages", "dims", "resolution"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "MIN_BATCH" not in imported
    # names a comparison reads, as an attribute or as a getattr string
    compared = {getattr(x, "attr", None) or getattr(x, "value", None)
                for c in ast.walk(tree) if isinstance(c, ast.Compare) for x in ast.walk(c)}
    assert "p_eliminate" not in compared


def _names_numpy_random(tree: ast.Module) -> bool:
    """Whether a module imports numpy.random, or something from it, or reads
    `random` off a name bound to numpy."""
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in numpy_names:
            dotted = [f"numpy.{node.attr}"]
        else:
            continue
        if any(f"{d}.".startswith("numpy.random.") for d in dotted):
            return True
    return False


def test_only_rng_names_numpy_random():
    """All randomness flows through `Rng`: no other module of the package
    names `np.random` or `numpy.random`."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert _names_numpy_random(trees["rng.py"])
    assert [name for name, tree in trees.items() if _names_numpy_random(tree)] == ["rng.py"]
    for text in ("import numpy.random", "from numpy.random import Philox", "from numpy import random",
                 "import numpy\nnumpy.random.Philox()", "import numpy as xp\nxp.random.rand()"):
        assert _names_numpy_random(ast.parse(text)), text
    assert not _names_numpy_random(ast.parse("import random\nimport numpy as np\nrandom.random()"))
