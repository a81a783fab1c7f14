"""Scenario files: JSON description of routes, right of way, vehicles and
parameter overrides."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from .config import PlannerParams
from .errors import ScenarioError
from .geometry import Polyline, Route, RouteGraph

DOUBLE_INTEGRATOR = "double_integrator"
IDM_AGENT = "idm"


@dataclass(frozen=True)
class VehicleSpec:
    id: str
    route_id: str
    s: float
    v: float
    agent: str = DOUBLE_INTEGRATOR


@dataclass
class Scenario:
    name: str
    graph: RouteGraph
    ego_route_id: str
    ego_s: float
    ego_v: float
    vehicles: list[VehicleSpec]
    duration: float
    seed: int
    params: PlannerParams = field(default_factory=PlannerParams)

    @property
    def ego_route(self) -> Route:
        return self.graph.routes[self.ego_route_id]


def load_scenario(path, overrides: dict | None = None,
                  seed: int | None = None) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on any
    malformed or inconsistent content."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(raw, overrides=overrides, seed=seed)


def scenario_from_dict(raw: dict, overrides: dict | None = None,
                       seed: int | None = None) -> Scenario:
    try:
        routes = []
        for r in _require(raw, "routes"):
            if not all(_is_number(c) for p in r["points"] for c in p):
                raise ScenarioError(f"route {r['id']}: points must be numbers")
            if not all(math.isfinite(c) for p in r["points"] for c in p):
                raise ScenarioError(f"route {r['id']}: points must be finite")
            routes.append(Route(
                id=str(r["id"]),
                centerline=Polyline(r["points"]),
                speed_limit=_number(r["speed_limit"], "speed_limit"),
                intersection_start=(
                    _number(r["intersection_start"], "intersection_start")
                    if r.get("intersection_start") is not None else None),
            ))
        graph = RouteGraph(routes, right_of_way=[tuple(p) for p in
                                                 raw.get("right_of_way", [])])
        ego = _require(raw, "ego")
        ego_route_id = str(ego["route"])
        if ego_route_id not in graph.routes:
            raise ScenarioError(f"ego route {ego_route_id!r} not defined")
        ego_s, ego_v = _number(ego["s"], "ego: s"), _number(ego["v"], "ego: v")
        if not 0.0 <= ego_s <= graph.routes[ego_route_id].length:
            raise ScenarioError("ego: s off route")
        if not 0.0 <= ego_v < math.inf:  # NaN included
            raise ScenarioError("ego: negative speed or not finite")
        duration = _number(_require(raw, "duration"), "duration")
        if not 0.0 <= duration < math.inf:
            raise ScenarioError("duration must be finite and >= 0")
        vehicles = []
        for v in raw.get("vehicles", []):
            what = f"vehicle {v['id']}:"
            spec = VehicleSpec(id=str(v["id"]), route_id=str(v["route"]),
                               s=_number(v["s"], f"{what} s"),
                               v=_number(v["v"], f"{what} v"),
                               agent=v.get("agent", DOUBLE_INTEGRATOR))
            if spec.route_id not in graph.routes:
                raise ScenarioError(f"vehicle {spec.id}: unknown route "
                                    f"{spec.route_id!r}")
            if not 0.0 <= spec.s <= graph.routes[spec.route_id].length:
                raise ScenarioError(f"vehicle {spec.id}: s off route")
            if not 0.0 <= spec.v < math.inf:  # NaN included
                raise ScenarioError(f"vehicle {spec.id}: negative speed or "
                                    "not finite")
            if spec.agent not in (DOUBLE_INTEGRATOR, IDM_AGENT):
                raise ScenarioError(f"vehicle {spec.id}: unknown agent kind "
                                    f"{spec.agent!r}")
            vehicles.append(spec)
        if len({v.id for v in vehicles}) != len(vehicles):
            raise ScenarioError("duplicate vehicle ids")
        seed = seed if seed is not None else raw.get("seed", 0)
        if not _is_number(seed) or seed != int(seed):
            raise ScenarioError(f"seed must be a whole number, got {seed!r}")
        seed = int(seed)
        if seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ScenarioError(f"seed must be >= 0, got {seed}")
        block = raw.get("params", {})
        if not isinstance(block, dict) or not all(  # bool is Real
                isinstance(v, numbers.Real) for v in block.values()):
            raise ScenarioError("params must be a JSON object of numbers "
                                "and booleans")
        params = PlannerParams().with_overrides(block)
        if overrides:
            params = params.with_overrides(overrides)
        return Scenario(
            name=str(raw.get("name", "scenario")),
            graph=graph,
            ego_route_id=ego_route_id,
            ego_s=ego_s,
            ego_v=ego_v,
            vehicles=vehicles,
            duration=duration,
            seed=seed,
            params=params,
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _is_number(value) -> bool:
    """Whether `value` is a number: a string or a true or false is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """`value` as a float, if it is a number."""
    if not _is_number(value):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    return float(value)


def _require(raw: dict, key: str):
    if key not in raw:
        raise ScenarioError(f"scenario is missing {key!r}")
    return raw[key]
