"""Every top-level import in the package's modules is used.

A stdlib ``ast`` check standing in for a linter's unused-import rule. A name
counts as used when a ``Name`` node anywhere in the module refers to it
(the root of an attribute chain is one). An import line marked
``# noqa: F401`` keeps a binding on purpose and is skipped. ``__future__``
imports and ``__init__.py`` are not checked.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qwake"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Top-level import bindings of a module, name -> line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    names = imported_names(tree, source.splitlines())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in names.items() if name not in used)


def test_checker_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from typing import Callable, Iterable\n"
        "from x import kept  # noqa: F401\n"
        "def f(g: Callable):\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterable (line 4)"]


def test_module_list_is_nonempty():
    assert any(p.name == "qsearch.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
