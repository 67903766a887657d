"""Every module-level import in the package's modules is used, and so is
every module-level private name, and no module imports another's private name.

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


def test_no_module_imports_a_private_name():
    """A module reaches another only through its public names."""
    imported = [f"{p.name}: {alias.name}" for p in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []
