"""Closed-loop simulation: replanning at the configured cadence, stochastic
double-integrator agents, deterministic seeding and trace logging."""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from . import arbiter, behavior, optimizer, prediction
from .behavior import BehaviorKind
from .geometry import Route, project_to_route
from .idm import _GAP_EPS, DT, VEHICLE_LENGTH, LongState, idm_acceleration
from .optimizer import N_FIXED, N_OPT
from .scenario import IDM_AGENT, Scenario
from .prediction import VehicleState

NOW = N_FIXED - 1  # plan sample of a cycle's start, the prefix's last


@dataclass(frozen=True)
class SimConfig:
    # the plan is executed one sample per step, so the step is the planning
    # grid's and cannot be set
    sim_step: ClassVar[float] = DT
    duration: Optional[float] = None  # defaults to the scenario's

    def __post_init__(self):
        if self.duration is not None and not 0.0 <= self.duration < math.inf:
            raise ValueError("SimConfig.duration must be finite and >= 0")


@dataclass
class TraceRecord:
    t: float
    ego_s: float
    ego_x: float
    ego_y: float
    ego_v: float
    ego_a_lon: float
    ego_a_lat: float
    ego_a_abs: float
    selected: str
    option_costs: dict = field(default_factory=dict)
    vehicles: dict = field(default_factory=dict)  # id -> (s, v)
    plan_ms: float = 0.0
    converged: bool = True
    solver_status: str = ""  # NlpResult.status of the plan being executed


class _Agent:
    """Non-reactive double integrator (optionally IDM-reactive)."""

    def __init__(self, spec, route: Route, rng: np.random.Generator):
        self.spec = spec
        self.route = route
        self.rng = rng
        self.s = spec.s
        self.v = spec.v

    def step(self, leader_gap: Optional[float], leader_dv: float, idm_params):
        if self.spec.agent == IDM_AGENT:
            # a tiny gap is floored as in `idm.rollout`, so the agent brakes
            gap = None if leader_gap is None else max(leader_gap, _GAP_EPS)
            a = idm_acceleration(self.v, self.route.speed_limit, gap,
                                 leader_dv, idm_params)
        else:
            a = self.rng.uniform(-1.0, 1.0)
        self.s += self.v * DT
        self.v = max(self.v + a * DT, 0.0)

    def state(self) -> VehicleState:
        pos = self.route.centerline.point_at(self.s, extrapolate=True)
        heading = self.route.centerline.heading_at(self.s)
        return VehicleState(id=self.spec.id, position=pos, heading=heading,
                            speed=self.v)


def run(scenario: Scenario, config: SimConfig = SimConfig()) -> list[TraceRecord]:
    """Simulate the scenario and return one record per simulation step.

    Deterministic: traces are a pure function of (scenario, config); the
    agents' random motion comes from the scenario's seed.
    """
    params = scenario.params
    duration = config.duration if config.duration is not None else scenario.duration
    steps = int(round(duration / DT))
    replan_every = params.replan_steps

    graph = scenario.graph
    ego_route = scenario.ego_route

    seq = np.random.SeedSequence(scenario.seed)
    children = seq.spawn(max(len(scenario.vehicles), 1))
    agents = [_Agent(spec, graph.routes[spec.route_id],
                     np.random.default_rng(children[i]))
              for i, spec in enumerate(scenario.vehicles)]

    # cold-start plan: constant velocity along the route
    ego_pos = ego_route.centerline.point_at(scenario.ego_s)
    heading = ego_route.centerline.heading_at(scenario.ego_s)
    v_vec = scenario.ego_v * np.array([math.cos(heading), math.sin(heading)])
    plan = np.array([ego_pos + v_vec * (k - NOW) * DT for k in range(N_OPT)])
    plan_idx = NOW
    last_kind: Optional[BehaviorKind] = None
    last_solve = (True, "")  # (converged, status) of the plan being executed

    records: list[TraceRecord] = []
    for i in range(steps + 1):
        t = i * DT
        if i % replan_every == 0 and i < steps:
            tic = _time.perf_counter()
            plan, last_kind, costs, result = _replan(
                plan, plan_idx, agents, graph, ego_route, params, last_kind)
            last_solve = (result.converged, result.status)
            plan_idx = NOW
            plan_ms = (_time.perf_counter() - tic) * 1e3
        else:
            plan_ms = 0.0
            costs = records[-1].option_costs if records else {}

        records.append(_record(t, plan, plan_idx, ego_route, agents,
                               last_kind, costs, plan_ms, *last_solve))

        if i < steps:
            for agent in agents:
                agent.step(*_agent_leader(agent, agents), params.idm)
            plan_idx += 1
    return records


def _agent_leader(agent: _Agent, agents: list[_Agent]):
    if agent.spec.agent != IDM_AGENT:
        return (None, 0.0)
    best_gap = None
    best_dv = 0.0
    for other in agents:
        if other is agent or other.route.id != agent.route.id:
            continue
        gap = other.s - agent.s - VEHICLE_LENGTH
        if other.s > agent.s and (best_gap is None or gap < best_gap):
            best_gap = gap
            best_dv = agent.v - other.v
    return (best_gap, best_dv)


def _replan(plan, plan_idx, agents, graph, ego_route, params, last_kind):
    """One planning cycle; the executed plan, every prediction and every
    reference share the planning grid, starting at this cycle."""
    idm_params = params.idm
    v_vec = optimizer._velocities(plan[plan_idx - 1:plan_idx + 2], DT)[0]
    speed = float(np.hypot(*v_vec))
    # only the pose's s and d are read; neither depends on the heading
    pose = project_to_route(plan[plan_idx], 0.0, ego_route)
    predictions = prediction.predict([a.state() for a in agents], graph,
                                     idm_params, params.predictor)
    ego_long = LongState(pose.s, speed)
    options = behavior.generate_options(
        ego_long, ego_route, predictions, graph, last_kind, idm_params,
        params.predictor, include_merge=params.use_virtual_leader)
    scored = arbiter.score_options(options, predictions, ego_route, graph,
                                   last_kind, idm_params, params.arbiter)
    selected = arbiter.select(scored, last_kind)
    costs = {str(s.option.kind): s.total for s in scored}

    # plan sample n corresponds to reference sample n - NOW: the prefix holds
    # the executed history
    prefix = plan[plan_idx - NOW:plan_idx + 1].copy()
    ref_traj = optimizer.reference_to_cartesian(
        selected.reference, ego_route, prefix, pose.d)
    result = optimizer.solve(ref_traj, prefix, params.optimizer)
    return result.trajectory.positions, selected.kind, costs, result


def _record(t, plan, plan_idx, ego_route, agents, last_kind, costs,
            plan_ms, converged, solver_status) -> TraceRecord:
    p = plan[plan_idx]
    around = plan[plan_idx - 1:plan_idx + 2]
    v_vec = optimizer._velocities(around, DT)[0]
    a_vec = optimizer._accelerations(around, DT)[0]
    speed = float(np.hypot(*v_vec))
    if speed > 1e-6:
        tangent = v_vec / speed
        a_lon = float(a_vec @ tangent)
        a_lat = float(tangent[0] * a_vec[1] - tangent[1] * a_vec[0])
    else:
        a_lon = float(np.hypot(*a_vec))
        a_lat = 0.0
    ego_s = project_to_route(p, 0.0, ego_route).s
    return TraceRecord(
        t=t, ego_s=ego_s, ego_x=float(p[0]), ego_y=float(p[1]), ego_v=speed,
        ego_a_lon=a_lon, ego_a_lat=a_lat, ego_a_abs=float(np.hypot(*a_vec)),
        selected=str(last_kind) if last_kind is not None else "",
        option_costs=dict(costs), vehicles={a.spec.id: (a.s, a.v) for a in agents},
        plan_ms=plan_ms, converged=converged, solver_status=solver_status)


def collision_check(trace: list[TraceRecord], scenario: Scenario) -> list[dict]:
    """Audit a trace: same-lane longitudinal overlap and simultaneous
    occupancy of crossing conflict zones."""
    graph = scenario.graph
    ego_rid = scenario.ego_route_id
    violations = []
    for tick, rec in enumerate(trace):
        for spec in scenario.vehicles:
            s_v, _ = rec.vehicles[spec.id]
            rid = spec.route_id
            if rid == ego_rid:
                if abs(s_v - rec.ego_s) < VEHICLE_LENGTH:
                    violations.append({"tick": tick, "t": rec.t,
                                       "vehicle": spec.id, "kind": "same_lane"})
                continue
            zone = graph.zone_between(ego_rid, rid)
            if zone is None:
                continue
            if zone.kind == "merging":
                de = rec.ego_s - zone.start[ego_rid]
                dv = s_v - zone.start[rid]
                if de > 0 and dv > 0 and abs(de - dv) < VEHICLE_LENGTH:
                    violations.append({"tick": tick, "t": rec.t,
                                       "vehicle": spec.id,
                                       "kind": "shared_lane"})
            else:
                lo_e, hi_e = zone.interval(ego_rid)
                lo_v, hi_v = zone.interval(rid)
                half = 0.5 * VEHICLE_LENGTH
                ego_in = lo_e - half < rec.ego_s < hi_e + half
                veh_in = lo_v - half < s_v < hi_v + half
                if ego_in and veh_in:
                    violations.append({"tick": tick, "t": rec.t,
                                       "vehicle": spec.id,
                                       "kind": "crossing_zone"})
    return violations
