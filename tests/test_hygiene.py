"""Source hygiene: every module-level import in the package is used.

A deleted code path must not leave its imports behind.  A name counts as
used if the module reads it anywhere or re-exports it through `__all__`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "hrtsim").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .a import b, c as d\n__all__ = ['b']\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: d"]
