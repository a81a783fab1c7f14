"""The planner names that planbench's recorder and tracer wrap from outside
still exist and are still called, so a planner change that breaks the
benchmark's hooks fails here rather than only in a benchmark run."""

import dataclasses
import sys
from pathlib import Path

from crossplan import SimConfig, idm, load_scenario, run

from scenes import T_JUNCTION_SCENARIO

sys.path.append(str(Path(__file__).resolve().parent.parent / "planbench"))

import capture  # noqa: E402
import tracer  # noqa: E402


def test_planbench_hooks_see_every_layer():
    # planbench/run.py reads the step as `config.sim_step` and shortens its
    # warm-up with `dataclasses.replace(config, duration=...)`
    config = dataclasses.replace(SimConfig(), duration=8.0)
    assert SimConfig().sim_step == config.sim_step == idm.DT
    # a_max=2 binds in the left turn, so the active-set solver runs (as in
    # tjunction_comfort)
    sc = load_scenario(T_JUNCTION_SCENARIO, overrides={"a_max": "2.0"})
    with capture.Recorder() as recorder, tracer.Tracer() as spans:
        run(sc, config)
    problems, summary = recorder.verify()
    assert problems == [], summary
    assert all(recorder.rollouts.values()), {
        b: len(c) for b, c in recorder.rollouts.items()}
    assert any(not closed_form for *_, closed_form in recorder.solves)
    for name in ("idm.rollout@prediction", "idm.rollout@behavior",
                 "idm.rollout@arbiter", "idm.target_speed_profile@behavior",
                 "geometry.project", "optimizer.solve", "optimizer.sqp"):
        assert spans.calls[name] > 0, name
