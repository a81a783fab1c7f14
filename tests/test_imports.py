"""Import hygiene of the planner package: every name a planner module
imports is read somewhere in that module, and no solve loads scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import crossplan

PACKAGE = Path(crossplan.__file__).parent

# a short bundled merge_rural episode, then tests/test_optimizer.py's
# right-angle corner at 11 m/s under a_max = 2; prints the scipy modules
# loaded after each, and the corner solve's status
SCIPY_SPY = """
import json, sys
import numpy as np
from crossplan import (CartesianTrajectory, OptimizerWeights, SimConfig,
                       load_scenario, run, solve)

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

trace = run(load_scenario(%r), SimConfig(duration=2.0))
statuses = sorted({rec.solver_status for rec in trace})
after_episode = scipy_modules()
step = np.where(np.arange(1, 60)[:, None] <= 30, [0.55, 0.0], [0.0, 0.55])
ref = np.vstack([[0.0, 0.0], np.cumsum(step, axis=0)])
result = solve(CartesianTrajectory(ref, 0.05), ref[:4].copy(),
               OptimizerWeights(a_max=2.0))
print(json.dumps({"statuses": statuses, "after_episode": after_episode,
                  "status": result.status,
                  "after_corner": scipy_modules()}))
""" % (str(PACKAGE.parent.parent / "scenarios" / "merge_rural.json"),)


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


def run_fresh(script: str, env: dict) -> dict:
    """The JSON that `script` prints, run in a fresh process with `env`
    and this checkout's package first on the path."""
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_scipy_module_loads_even_at_a_constrained_solve():
    seen = run_fresh(SCIPY_SPY, os.environ)
    assert "closed_form" in seen["statuses"]
    assert seen["after_episode"] == []
    assert seen["status"] == "converged"
    assert seen["after_corner"] == []
