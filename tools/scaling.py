"""Planning work and time per cycle against traffic density.

Runs each bundled scenario in SCENES with N vehicles added by the test
suite's `scenes.add_random_vehicles` (N in ADDED) for SECONDS simulated
seconds with default parameters, and prints one row per run:

- the rollouts per planning cycle made through the `rollout` binding of
  prediction, behavior and the arbiter, counted by `scenes.count_rollouts`,
  and the behavior options per cycle, counted by `scenes.count_options`.
  They are a pure function of the scenario, so two checkouts can be
  compared on any machine;
- the mean, p99 and max raw `plan_ms`. They depend on the machine and its
  load and are informative only;
- the ego's progress (m, the path length that planbench reports as
  `ego_progress_m`) beside the violations that `collision_check` reports,
  by kind, so a run that avoids collisions by holding back shows it.

    python3 tools/scaling.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "planbench"))

import repo  # noqa: E402

repo.make_importable()
sys.path.append(str(repo.ROOT / "tests"))

from crossplan import (SimConfig, collision_check, load_scenario,  # noqa: E402
                       simloop)

import checks  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scenes import (ROLLOUT_LAYERS, SCENARIO_DIR,  # noqa: E402
                    add_random_vehicles, count_options, count_rollouts)

SCENES = ("merge_rural", "t_junction")
ADDED = (0, 10, 20, 40)  # vehicles added to each scene
SECONDS = 12.0


def measure(scene: str, added: int) -> dict:
    """One run of `scene` with `added` vehicles: its work, time, progress
    and collision figures."""
    sc = add_random_vehicles(load_scenario(SCENARIO_DIR / f"{scene}.json"),
                             added)
    counts = dict.fromkeys([*ROLLOUT_LAYERS, "options"], 0)
    with pytest.MonkeyPatch.context() as mp:
        count_rollouts(mp, counts)
        count_options(mp, counts)
        trace = simloop.run(sc, SimConfig(duration=SECONDS))
    # every planning cycle takes some time; the records between them none
    plan_ms = np.array([rec.plan_ms for rec in trace if rec.plan_ms > 0.0])
    cycles = len(plan_ms)
    return {
        "scene": scene, "vehicles": len(sc.vehicles), "cycles": cycles,
        **{layer: n / cycles for layer, n in counts.items()},
        "mean_ms": plan_ms.mean(), "p99_ms": np.percentile(plan_ms, 99),
        "max_ms": plan_ms.max(), "progress_m": checks.path_length(trace),
        "collisions": Counter(v["kind"] for v in collision_check(trace, sc)),
    }


def main() -> int:
    print("scene        vehicles cycles | rollouts/cycle: prediction behavior"
          " arbiter | options/cycle | plan_ms (informative): mean p99 max |"
          " progress_m collisions")
    for scene in SCENES:
        for added in ADDED:
            row = measure(scene, added)
            kinds = " ".join(f"{k}={n}" for k, n in
                             sorted(row["collisions"].items())) or "0"
            print(f"{row['scene']:<12} {row['vehicles']:>8} {row['cycles']:>6}"
                  f" | {row['prediction']:10.2f} {row['behavior']:8.2f}"
                  f" {row['arbiter']:7.2f} | {row['options']:13.2f}"
                  f" | {row['mean_ms']:6.1f}"
                  f" {row['p99_ms']:6.1f} {row['max_ms']:6.1f}"
                  f" | {row['progress_m']:10.1f} {kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
