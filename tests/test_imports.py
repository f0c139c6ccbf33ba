"""Every name a module in src/ or tests/ imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
)


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in the module and never
    read as a plain name; ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_scanner_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import floor, gcd\n"
        "def f():\n"
        "    from itertools import chain\n"
        "    return os.path.sep, floor(1.5)\n"
    )
    assert unused_imports(source) == [
        "line 3: j", "line 4: gcd", "line 6: chain"]


def test_modules_found():
    names = {path.name for path in MODULES}
    assert {"formula.py", "cli.py", "test_imports.py"} <= names


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
