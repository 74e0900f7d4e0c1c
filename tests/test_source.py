"""Source hygiene: every name a module imports at module level is used in it."""

import ast
from pathlib import Path

import pytest

import opengames

PACKAGE = Path(opengames.__file__).parent
# `__init__.py` imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom .finite import total_fn, UNIT\n\nx = UNIT\n"
    assert unused_imports(source) == ["os", "total_fn"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
