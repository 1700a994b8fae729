"""AST scans of the library's modules.

No linter ships with the test dependencies, so these scans are the guard:

* every module uses each name it imports: a name bound by ``import`` or
  ``from ... import`` must appear as a name somewhere else in the module.
  Package ``__init__`` files (re-exports) and ``from __future__`` imports
  are exempt;
* no module holds an ``assert`` statement: runtime invariants raise
  ``NumericalAbort`` or ``ValidationError``, which ``python -O`` does not
  strip;
* no library code exists for the tests alone: every module-level function
  and class and every method of the package is used by name somewhere in
  the package, ``scripts/`` or ``perfbench/`` outside its own definition
  (comments and docstrings do not count).  Test oracles live in
  ``tests/oracles.py``.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def test_importing_the_package_leaves_unused_scipy_parts_unloaded():
    # scipy.sparse.csgraph serves only the sparse assignment and scipy.optimize
    # only the dense one and the LP; both are imported where they are called,
    # and each of these raises every run's peak memory
    code = (
        "import sys, vmvp.cli, vmvp.config, vmvp.harness, vmvp.lagrangian, vmvp.multifluid, vmvp.transport; "
        "print([m for m in ('scipy.sparse.csgraph', 'scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def assert_lines(source: str) -> list[int]:
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_scan_flags_an_assert():
    src = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\nassert_x = 1\n"
    assert assert_lines(src) == [3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


# ----------------------------------------------------------------------
# test-only library code
# ----------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
# directories whose code may name a library definition; tests/ is not among them
CALLER_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
# load_ensemble reads the abort_state.ens dump that a NumericalAbort leaves behind
NAMED_ONLY_BY_TESTS = {"load_ensemble"}


def used_names(tree) -> Counter:
    """Names a tree uses: variables, attributes, imported names, and string
    constants spelling an identifier (perfbench looks names up by string)."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def definitions(tree):
    """Every module-level function and class and every method; dunder methods
    are called implicitly and skipped."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [
                m
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("__")
            ]
    return out


def unnamed_definitions(defining: list[str], callers: list[str]) -> list[str]:
    """Definitions in the `defining` sources that no source in `callers` uses
    by name, except inside the definition itself."""
    used = sum((used_names(ast.parse(src)) for src in callers), Counter())
    return sorted(
        node.name
        for src in defining
        for node in definitions(ast.parse(src))
        if used[node.name] == used_names(node)[node.name]
    )


def test_scan_flags_a_name_only_its_definition_uses():
    lib = (
        "def used(x):\n    return x\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def by_string():\n    pass\n\n"
        "class Box:\n    def __init__(self):\n        self.v = used(1)\n\n"
        "    def orphan(self):\n        \"Not Box.size, not Box.orphan.\"\n        return self.v  # orphan\n\n"
        "    @property\n    def size(self):\n        return 1\n"
    )
    caller = "from lib import Box\nprint(Box().size, getattr(lib, 'by_string'))\n"
    assert unnamed_definitions([lib], [lib, caller]) == ["orphan", "recursive"]


def test_every_library_definition_is_named_outside_the_tests():
    callers = [p.read_text(encoding="utf-8") for d in CALLER_DIRS for p in sorted(d.glob("*.py"))]
    library = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert sorted(set(unnamed_definitions(library, callers)) - NAMED_ONLY_BY_TESTS) == []
