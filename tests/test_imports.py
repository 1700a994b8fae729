"""AST scans of the library's modules.

No linter ships with the test dependencies, so these scans are the guard:

* every module uses each name it imports: a name bound by ``import`` or
  ``from ... import`` must appear as a name somewhere else in the module.
  Package ``__init__`` files (re-exports) and ``from __future__`` imports
  are exempt;
* no module holds an ``assert`` statement: runtime invariants raise
  ``NumericalAbort`` or ``ValidationError``, which ``python -O`` does not
  strip.
"""

import ast
from pathlib import Path

import pytest

import vmvp

PACKAGE = Path(vmvp.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def assert_lines(source: str) -> list[int]:
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_scan_flags_an_assert():
    src = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\nassert_x = 1\n"
    assert assert_lines(src) == [3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
