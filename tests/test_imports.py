"""Every module of the library uses each name it imports.

No linter ships with the test dependencies, so this AST scan is the guard:
a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere else in the module.  Package ``__init__`` files (re-exports) and
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import vmvp

MODULES = sorted(p for p in Path(vmvp.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_flags_an_unused_name():
    src = "from a import b, c\nimport d.e\nimport f as g\nfrom __future__ import annotations\nc(); d.x\n"
    assert unused_imports(src) == ["b", "g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
