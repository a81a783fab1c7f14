"""Count the settable values of the planner package.

A settable value is a default that a caller can replace: a dataclass field
with a default (`ClassVar` constants excluded), or a parameter default of a
public function or method (one whose name has no leading underscore, or a
dunder such as `__init__`). The count is read from the source with `ast`;
nothing is imported. For the checkout the script sits in,

    python3 tools/settable_values.py

prints one line per module of `src/` and the total.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated `@dataclass` or `@dataclass(...)`."""
    return any(getattr(dec.func if isinstance(dec, ast.Call) else dec, "id",
                       None) == "dataclass" for dec in node.decorator_list)


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):  # ClassVar[...]
        annotation = annotation.value
    return getattr(annotation, "id", None) == "ClassVar"


def _has_default(value: ast.expr | None) -> bool:
    """A field's value is a default unless it is `field(...)` without
    `default` or `default_factory`."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id",
                                               None) == "field":
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return True


def _field_defaults(node: ast.ClassDef) -> int:
    return sum(1 for stmt in node.body
               if isinstance(stmt, ast.AnnAssign)
               and not _is_classvar(stmt.annotation)
               and _has_default(stmt.value))


def _parameter_defaults(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _count(body: list[ast.stmt]) -> int:
    total = 0
    for node in body:
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                total += _field_defaults(node)
            total += _count(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                total += _parameter_defaults(node)
    return total


def count_module(path: Path) -> int:
    """Settable values defined in one module's top level and classes."""
    return _count(ast.parse(path.read_text(), str(path)).body)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        n = count_module(path)
        total += n
        print(f"{path.relative_to(SRC)} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
