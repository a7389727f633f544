"""Every name a package module imports is used in that module, and
every module-level private function or class is referenced in it.

No linter ships with the package, so this stands in for an
unused-import and dead-helper check.  A name counts as used wherever
the module reads it, annotations included; a private definition counts
as referenced only from outside its own body, so a helper that only
calls itself is still caught.  ssg/__init__.py is skipped by the import
check: it imports to re-export.
"""

import ast
from pathlib import Path

import ssg

PACKAGE = Path(ssg.__file__).parent


def imported_names(tree: ast.Module):
    """(line, name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported_names(tree) if name not in used]


def unreferenced_private_definitions(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    private = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]

    def read_outside(definition) -> set[str]:
        return {
            node.id
            for top in tree.body if top is not definition
            for node in ast.walk(top) if isinstance(node, ast.Name)
        }

    return [(node.lineno, node.name) for node in private if node.name not in read_outside(node)]


def test_the_check_sees_uses_and_misses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, Sequence\n"
        "from .model import Game as G, Strategy\n"
        "def f(x: Sequence[int]) -> G:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "Callable"), (4, "Strategy")]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = [
        f"{path.name}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_the_private_check_sees_references_and_misses():
    source = (
        "class _Used:\n"
        "    pass\n"
        "class _Unused:\n"
        "    pass\n"
        "def _recurses(n):\n"
        "    return _recurses(n - 1) if n else _Used()\n"
        "def _called(x: int) -> int:\n"
        "    return x\n"
        "def public():\n"
        "    return _called(1)\n"
    )
    assert unreferenced_private_definitions(source) == [(3, "_Unused"), (5, "_recurses")]


def test_package_modules_reference_every_private_definition():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    unreferenced = [
        f"{path.name}:{line} {name}"
        for path in modules
        for line, name in unreferenced_private_definitions(path.read_text(encoding="utf-8"))
    ]
    assert unreferenced == []
