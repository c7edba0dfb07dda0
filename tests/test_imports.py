"""Import hygiene: every module of the package uses what it imports, and
every name the package exports resolves."""

import ast
from pathlib import Path

import pytest

import vpvlab

PACKAGE = Path(vpvlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    assert _unused_imports("import math\nfrom enum import Enum\nmath.pi\n") == ["Enum (line 2)"]


def test_every_exported_name_resolves():
    missing = [name for name in vpvlab.__all__ if not hasattr(vpvlab, name)]
    assert missing == []
    assert len(vpvlab.__all__) == len(set(vpvlab.__all__))
