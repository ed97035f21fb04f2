"""Every liesupp module uses each name it imports (the package __init__,
which imports to re-export, aside).  Standard library only."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liesupp"
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
