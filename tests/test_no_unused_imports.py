"""Every name a library module imports is used in it, so deleting the last
use of an import deletes the import too.  ``__init__.py`` is skipped: its
imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

SRC = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "poissonenv").glob("*.py")
    if path.name != "__init__.py"
)


def _imported_names(tree):
    """(bound name, line) for each import; ``import a.b`` binds ``a``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_library_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{name} (line {line})"
        for name, line in _imported_names(tree)
        if name not in used
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_library_modules_found():
    assert any(p.name == "filtration.py" for p in SRC)
