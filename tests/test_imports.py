"""Every name a planner module imports is read somewhere in that module."""

import ast
from pathlib import Path

import crossplan

PACKAGE = Path(crossplan.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in `source` and never loaded.
    `from __future__` imports are directives, not names, and are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from typing import Optional\n"
              "def f(x: Optional[int]):\n"
              "    return np.sqrt(x)\n")
    assert unused_imports(source) == ["line 2: math"]


def test_planner_modules_read_every_name_they_import():
    # __init__.py imports names to re-export them
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
