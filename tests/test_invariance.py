"""Metamorphic tests: runs that must plan alike are compared with each other,
not with fixed outputs. Moving or mirroring the whole map, or renaming the
vehicles, changes nothing the planner decides from."""

import copy
import json
import math

import pytest

from crossplan import SimConfig, run, scenario_from_dict

from scenes import MERGE_SCENARIO, T_JUNCTION_SCENARIO


def _moved(raw, transform):
    moved = copy.deepcopy(raw)
    for route in moved["routes"]:
        route["points"] = [list(transform(*p)) for p in route["points"]]
    return moved


def _rigid(angle, dx, dy):
    c, s = math.cos(angle), math.sin(angle)
    return lambda x, y: (c * x - s * y + dx, s * x + c * y + dy)


def _renamed(raw):
    """The vehicles renamed so that their ids sort in reverse, and the map
    from the new ids back to the old."""
    renamed = copy.deepcopy(raw)
    ids = sorted(v["id"] for v in raw["vehicles"])
    new = {old: f"car{len(ids) - 1 - i}" for i, old in enumerate(ids)}
    for v in renamed["vehicles"]:
        v["id"] = new[v["id"]]
    return renamed, {n: o for o, n in new.items()}


def _selected(record, back):
    """The record's selection with a merge target's id mapped by `back`."""
    name, _, target = record.selected.partition("(")
    if not target:
        return record.selected
    return f"{name}({back.get(target[:-1], target[:-1])})"


# (scene, agent seed): the seeds at which one more grid sample on a route
# whose length reads a hair long moves the ego most (0.21 m and 10.9 m)
@pytest.mark.parametrize("path, seed", [(MERGE_SCENARIO, 0),
                                        (T_JUNCTION_SCENARIO, 1)],
                         ids=["merge_rural", "t_junction"])
def test_plans_do_not_depend_on_where_the_map_lies(path, seed):
    raw = json.loads(path.read_text())
    want = run(scenario_from_dict(raw, seed=seed), SimConfig())
    renamed, back = _renamed(raw)
    variants = {
        "rotated 0.3 rad, shifted (2000, 0)": (
            _moved(raw, _rigid(0.3, 2000.0, 0.0)), {}),
        "rotated -2.0 rad, shifted (-1234.5, 567.25)": (
            _moved(raw, _rigid(-2.0, -1234.5, 567.25)), {}),
        "mirrored x -> -x": (_moved(raw, lambda x, y: (-x, y)), {}),
        "vehicles renamed": (renamed, back),
    }
    for what, (changed, to_old) in variants.items():
        got = run(scenario_from_dict(changed, seed=seed), SimConfig())
        assert len(got) == len(want), what
        for g, w in zip(got, want):
            assert _selected(g, to_old) == w.selected, (what, w.t)
            assert abs(g.ego_s - w.ego_s) <= 1e-6, (what, w.t)
            assert abs(g.ego_v - w.ego_v) <= 1e-6, (what, w.t)
