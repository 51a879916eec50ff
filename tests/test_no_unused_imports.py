"""Every name a library module imports is used in it, so deleting the last
use of an import deletes the import too.  ``__init__.py`` is skipped: its
imports are the package's re-exports.  Every module-level definition of the
library is exported in ``poissonenv.__all__`` or read somewhere in
``src/``, ``tests/`` or ``perfbench/``, so deleting the last reader of a
name deletes the name too."""

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


ROOT = Path(__file__).parent.parent


def _module_level_names(tree):
    """(name, line) for each def, class and plain assignment at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno


def _read_names(tree):
    """Every name ``tree`` reads: loaded names, attributes, imported names,
    and the dotted parts of string constants (``perfbench/tracing.py`` names
    its entry points as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_library_definition_is_exported_or_read():
    import poissonenv

    sources = [
        path
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    read = set()
    for path in sources:
        read.update(_read_names(ast.parse(path.read_text(), filename=str(path))))
    package = ROOT / "src" / "poissonenv"
    unread = [
        f"{path.name}: {name} (line {line})"
        for path in sorted(package.glob("*.py"))
        for name, line in _module_level_names(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in poissonenv.__all__
        and name not in read
    ]
    assert not unread, f"definitions nothing reads: {unread}"
