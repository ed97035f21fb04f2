"""Every liesupp module uses each name it imports (the package __init__,
which imports to re-export, aside), and every module-level private name of
liesupp is used somewhere in src/ or tests/.  Standard library only."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "liesupp"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module):
    """(line, bound name) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def referenced_names(tree: ast.Module):
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_every_module_is_checked():
    assert {"census.py", "classify.py", "lattice.py", "subspace.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = referenced_names(tree)
    unused = [f"{module}:{line} {name}" for line, name in imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("from typing import Iterator, Optional\nx: Optional[int] = None\n")
    used = referenced_names(tree)
    assert [name for _, name in imported_names(tree) if name not in used] == ["Iterator"]


def private_definitions(tree: ast.Module):
    """(line, name) for every private (one leading underscore, not dunder)
    name a module binds at its top level: functions, classes and assigned
    names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def uses(tree: ast.Module):
    """Every name a file reads, imports, reaches as an attribute or spells
    out as a string (monkeypatch.setattr(module, "_name", ...))."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_unused_private_name():
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    used = set().union(*(uses(ast.parse(f.read_text(), filename=f.name)) for f in files))
    unused = [
        f"{module}:{line} {name}"
        for module in MODULES
        for line, name in private_definitions(ast.parse((SRC / module).read_text()))
        if name not in used
    ]
    assert not unused, f"private names nothing uses: {unused}"


def test_detects_an_unused_private_name():
    tree = ast.parse("_KEPT = 1\n_GONE = 2\n__all__ = []\ndef _f():\n    return _KEPT\n")
    used = uses(tree)
    assert [name for _, name in private_definitions(tree) if name not in used] == ["_GONE", "_f"]
