"""Import hygiene of the planner package: every name a planner module
imports is read somewhere in that module, and importing the package pins
the BLAS pools before numpy loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import crossplan

PACKAGE = Path(crossplan.__file__).parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# prints the BLAS variables as they are when numpy starts to load
BLAS_SPY = """
import json, os, sys
seen = {}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in %r)
        return None
sys.meta_path.insert(0, Spy())
import crossplan
print(json.dumps(seen))
""" % (BLAS_VARS,)


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


def blas_env_at_numpy_load(preset: dict) -> dict:
    """The BLAS variables numpy sees in a fresh process that imports
    crossplan, started with none of them set but `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", BLAS_SPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_pins_blas_to_one_thread_before_numpy_loads():
    assert blas_env_at_numpy_load({}) == {v: "1" for v in BLAS_VARS}


def test_import_keeps_a_blas_thread_count_already_set():
    seen = blas_env_at_numpy_load({"OPENBLAS_NUM_THREADS": "2"})
    assert seen == {v: "2" if v == "OPENBLAS_NUM_THREADS" else "1"
                    for v in BLAS_VARS}
