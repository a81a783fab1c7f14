"""Shared builders for the test suite: routes, graphs, and random scenes."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from crossplan import (
    LongTrajectory,
    Polyline,
    Route,
    RouteGraph,
    Scenario,
    VehicleSpec,
    VehicleState,
    arbiter,
    behavior,
    load_scenario,
    prediction,
)
from crossplan.idm import VEHICLE_LENGTH, IdmParams

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MERGE_SCENARIO = SCENARIO_DIR / "merge_rural.json"
T_JUNCTION_SCENARIO = SCENARIO_DIR / "t_junction.json"


def line_route(rid, p0, p1, n=61, limit=15.0, intersection_start=None):
    """Straight route between two points."""
    pts = np.linspace(np.asarray(p0, float), np.asarray(p1, float), n)
    return Route(id=rid, centerline=Polyline(pts), speed_limit=limit,
                 intersection_start=intersection_start)


def circle_route(rid, radius, n=200, limit=15.0, sweep=np.pi):
    """Circular-arc route of the given radius centred at the origin."""
    th = np.linspace(0.0, sweep, n)
    pts = np.stack([radius * np.cos(th), radius * np.sin(th)], axis=1)
    return Route(id=rid, centerline=Polyline(pts), speed_limit=limit,
                 intersection_start=None)


def merge_scenario(**kwargs):
    return load_scenario(MERGE_SCENARIO, **kwargs)


def t_junction_scenario(**kwargs):
    return load_scenario(T_JUNCTION_SCENARIO, **kwargs)


def merge_graph() -> RouteGraph:
    return merge_scenario().graph


def t_junction_graph() -> RouteGraph:
    return t_junction_scenario().graph


def random_scene(graph: RouteGraph, rng: np.random.Generator,
                 max_vehicles: int = 4) -> list[VehicleState]:
    """Random vehicles placed near random routes of `graph`."""
    rids = sorted(graph.routes)
    others = []
    n = int(rng.integers(1, max_vehicles + 1))
    for i in range(n):
        route = graph.routes[rids[int(rng.integers(len(rids)))]]
        s = float(rng.uniform(0.05, 0.8) * route.length)
        d = float(rng.uniform(-0.4, 0.4))
        position = route.centerline.point_at(s, d)
        heading = route.centerline.heading_at(s) + float(rng.uniform(-0.15, 0.15))
        speed = float(rng.uniform(0.0, route.speed_limit))
        others.append(VehicleState(id=f"v{i}", position=position,
                                   heading=heading, speed=speed))
    return others


def reaching_at(s_target: float, k: int, t0: float = 0.0) -> LongTrajectory:
    """201 samples at 10 m/s, 0.05 s apart, whose first sample at or past
    `s_target` is sample k, stamped with the clock `t0`."""
    s = s_target - 0.5 * k + 0.1 + 10.0 * (np.arange(201) * 0.05)
    return LongTrajectory(s, np.full(201, 10.0), 0.05, t0=t0)


def write_scenario(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw))
    return path


def tiny_scenario_dict(duration=2.0, vehicles=(), seed=3):
    """Minimal two-route merge scenario for fast CLI and simloop tests."""
    main = [[x, 0.0] for x in np.linspace(-200.0, 150.0, 71)]
    ramp_in = [[x, -0.004 * (x + 60.0) ** 2] for x in np.linspace(-160.0, -60.0, 26)]
    ramp_out = [[x, 0.0] for x in np.linspace(-56.0, 150.0, 52)]
    return {
        "name": "tiny_merge",
        "routes": [
            {"id": "main", "points": main, "speed_limit": 15.0,
             "intersection_start": None},
            {"id": "ramp", "points": ramp_in + ramp_out, "speed_limit": 15.0,
             "intersection_start": 80.0},
        ],
        "right_of_way": [["main", "ramp"]],
        "ego": {"route": "ramp", "s": 10.0, "v": 12.0},
        "vehicles": list(vehicles),
        "duration": duration,
        "seed": seed,
    }


def start_gap(scenario: Scenario) -> float:
    """How far ahead of the ego `add_random_vehicles` starts a vehicle on
    the ego's route: a vehicle length plus the IDM's desired gap of the ego
    closing on the slowest vehicle it can place there."""
    limit = scenario.graph.routes[scenario.ego_route_id].speed_limit
    v = scenario.ego_v
    return VEHICLE_LENGTH + IdmParams().desired_gap(v, v - 0.4 * limit)


def add_random_vehicles(scenario: Scenario, count: int) -> Scenario:
    """Seeded placement of extra double-integrator vehicles at 0.4 to 0.9
    of their route's speed limit. On the ego's route they start at least
    `start_gap` ahead of the ego."""
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 0xBE]))
    rids = sorted(scenario.graph.routes)
    vehicles = list(scenario.vehicles)
    gap = start_gap(scenario)
    for i in range(count):
        rid = rids[int(rng.integers(len(rids)))]
        route = scenario.graph.routes[rid]
        lo = scenario.ego_s + gap if rid == scenario.ego_route_id else 0.0
        vehicles.append(VehicleSpec(
            id=f"bench{i}",
            route_id=rid,
            s=float(rng.uniform(lo, max(lo, 0.6 * route.length))),
            v=float(rng.uniform(0.4, 0.9) * route.speed_limit)))
    return dataclasses.replace(scenario, vehicles=vehicles)


# the planning layers that call `rollout` through their own module binding
ROLLOUT_LAYERS = {"prediction": prediction, "behavior": behavior,
                  "arbiter": arbiter}


def count_rollouts(monkeypatch, counts: dict, on_call=None) -> None:
    """Wrap each layer's `rollout` binding with `monkeypatch.setattr` so
    that every call adds one to `counts[layer]` and then calls
    `on_call(layer)`, if given."""
    def counted(layer, fn):
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            if on_call is not None:
                on_call(layer)
            return fn(*args, **kwargs)
        return wrapper

    for layer, module in ROLLOUT_LAYERS.items():
        monkeypatch.setattr(module, "rollout", counted(layer, module.rollout))


def count_options(monkeypatch, counts: dict) -> None:
    """Wrap `behavior.generate_options` with `monkeypatch.setattr` so that
    every call adds its number of options to `counts["options"]`."""
    def counted(fn):
        def wrapper(*args, **kwargs):
            options = fn(*args, **kwargs)
            counts["options"] += len(options)
            return options
        return wrapper

    monkeypatch.setattr(behavior, "generate_options",
                        counted(behavior.generate_options))
