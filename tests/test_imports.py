"""Import hygiene of the planner package: every name a planner module
imports is read somewhere in that module, importing the package pins the
BLAS pools before numpy loads, and scipy loads only at the first solve
that runs SLSQP."""

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


def blas_env_at_numpy_load(preset: dict) -> dict:
    """The BLAS variables numpy sees in a fresh process that imports
    crossplan, started with none of them set but `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    return run_fresh(BLAS_SPY, env)


def test_import_pins_blas_to_one_thread_before_numpy_loads():
    assert blas_env_at_numpy_load({}) == {v: "1" for v in BLAS_VARS}


def test_import_keeps_a_blas_thread_count_already_set():
    seen = blas_env_at_numpy_load({"OPENBLAS_NUM_THREADS": "2"})
    assert seen == {v: "2" if v == "OPENBLAS_NUM_THREADS" else "1"
                    for v in BLAS_VARS}


def test_scipy_loads_only_at_the_first_slsqp_solve():
    seen = run_fresh(SCIPY_SPY, os.environ)
    assert "closed_form" in seen["statuses"]
    assert seen["after_episode"] == []
    assert seen["status"] == "converged"
    assert "scipy.optimize" in seen["after_corner"]
