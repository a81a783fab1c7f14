"""Probabilistic prediction of other vehicles: Bayes route classification,
rule-based stop/drive maneuver probabilities and IDM rollouts per hypothesis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NoCandidateRoute
from .geometry import (ConflictZone, FrenetPose, Route, RouteGraph,
                       normalize_angle)
from .idm import (IdmParams, LongState, LongTrajectory, SpeedProfile,
                  VEHICLE_LENGTH, rollout, route_profile, stop_target)

# corridor bounds that qualify a route as a candidate for a vehicle
CANDIDATE_D_MAX = 3.0
CANDIDATE_PHI_MAX = 0.6
MERGE_ZONE_EXTENT = 15.0  # m, occupancy length past a merge point

STOP = "stop"
DRIVE = "drive"


@dataclass(frozen=True)
class PredictorParams:
    sigma_phi: float = 0.1       # rad
    sigma_d: float = 0.1         # m
    delta_r: float = 0.1         # leader-relevance threshold
    dt_inter: float = 3.0        # s, TTC window for the yield flag
    lambda1: float = 0.55        # yield & prioritized traffic in conflict
    lambda2: float = 1.0         # yield & free intersection
    lambda3: float = 0.75        # has priority

    def __post_init__(self):
        if self.sigma_phi <= 0 or self.sigma_d <= 0:
            raise ValueError("sigmas must be positive")
        if not 0 < self.delta_r < 1:
            raise ValueError("delta_r must be in (0,1)")
        if not self.dt_inter >= 0:
            raise ValueError("dt_inter must be >= 0")
        for lam in (self.lambda1, self.lambda2, self.lambda3):
            if not 0 < lam <= 1:
                raise ValueError("lambdas must be in (0,1]")


@dataclass(frozen=True)
class VehicleState:
    id: str
    position: np.ndarray
    heading: float
    speed: float

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be >= 0")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


@dataclass
class Hypothesis:
    """One (route, maneuver) prediction of a vehicle with its rollout;
    `probability` is the vehicle's route belief times P(maneuver | route).

    Invariant: `trajectory` is `rollout(start, profile, leader, stop_at)`
    on the planning grid with the prediction's `IdmParams`, so
    re-simulating it from this context with the same parameters reproduces
    it bit for bit, so the arbiter skips a reaction whose `idm.closer_leader`
    is `leader` itself. `leader` is the drive hypothesis on `route_id` of
    the vehicle that `closest_leader` picks; None if none leads.
    """

    route_id: str
    maneuver: str
    trajectory: LongTrajectory
    probability: float
    # rollout context, kept so courtesy scoring can re-simulate the reaction
    leader: Optional[LongTrajectory] = None
    stop_at: Optional[float] = None
    profile: Optional[SpeedProfile] = field(default=None, repr=False)
    start: Optional[LongState] = None


def route_belief(poses: dict[str, FrenetPose],
                 params: PredictorParams = PredictorParams()) -> dict[str, float]:
    """Bayes route probabilities from each candidate route's pose (lateral
    offset and heading difference), as returned by `candidate_routes`.

    Gaussian likelihoods with zero mean; uniform prior over candidates.
    """
    if not poses:
        raise NoCandidateRoute("no candidate route for vehicle")
    logs = {rid: -0.5 * ((pose.phi / params.sigma_phi) ** 2
                         + (pose.d / params.sigma_d) ** 2)
            for rid, pose in poses.items()}
    peak = max(logs.values())
    w = {rid: math.exp(l - peak) for rid, l in logs.items()}
    total = sum(w.values())
    return {rid: wi / total for rid, wi in w.items()}


def candidate_routes(vehicle: VehicleState,
                     graph: RouteGraph) -> dict[str, FrenetPose]:
    """The vehicle's pose on every route whose corridor (|d|, |phi| bounds)
    contains it, by route id in sorted order."""
    out = {}
    for rid in sorted(graph.routes):
        route = graph.routes[rid]
        s, d, dist = route.centerline.project(vehicle.position)
        if dist > CANDIDATE_D_MAX:  # dist is |d|
            continue
        phi = normalize_angle(vehicle.heading - route.centerline.heading_at(s))
        if abs(phi) <= CANDIDATE_PHI_MAX:
            out[rid] = FrenetPose(s=s, d=d, phi=phi)
    return out


def occupancy_window(traj: LongTrajectory, zone: ConflictZone,
                     route_id: str) -> Optional[tuple[float, float]]:
    """(t_in, t_out), counted from the trajectory's first sample, during
    which a trajectory on `route_id` occupies the conflict zone, its front
    entering half a vehicle length before the zone and its rear clearing
    half a length after it; a merging zone ends MERGE_ZONE_EXTENT past its
    start. t_out is inf when the trajectory has not cleared the zone at its
    horizon; None when it never enters."""
    lo, hi = zone.interval(route_id)
    if zone.kind == "merging":
        hi = lo + MERGE_ZONE_EXTENT
    enter = traj.first_index_reaching(lo - 0.5 * VEHICLE_LENGTH)
    if enter is None:
        return None
    leave = traj.first_index_reaching(hi + 0.5 * VEHICLE_LENGTH)
    t_out = leave * traj.dt if leave is not None else math.inf
    return enter * traj.dt, t_out


def drive_probability(route: Route, drive_traj: LongTrajectory,
                      prioritized: list[tuple[str, LongTrajectory]],
                      graph: RouteGraph,
                      params: PredictorParams = PredictorParams()) -> float:
    """P(drive) for a vehicle on `route` given prioritized traffic.

    `prioritized` lists (route_id, rollout) of vehicles whose route has right
    of way over `route`. Yields lambda1/lambda2/lambda3 exactly.
    """
    if not graph.must_yield(route.id):
        return params.lambda3
    for other_rid, other_traj in prioritized:
        zone = graph.zone_between(route.id, other_rid)
        if zone is None:
            continue
        arrival = occupancy_window(drive_traj, zone, route.id)
        if arrival is None:
            continue
        window = occupancy_window(other_traj, zone, other_rid)
        if window is None:
            continue
        t_in, t_out = window
        if t_in - params.dt_inter <= arrival[0] <= t_out + params.dt_inter:
            return params.lambda1
    return params.lambda2


def predict(others: list[VehicleState], graph: RouteGraph,
            idm_params: IdmParams = IdmParams(),
            params: PredictorParams = PredictorParams()) -> dict[str, list[Hypothesis]]:
    """Hypothesis sets for every non-ego vehicle. A hypothesis's probability
    is the route belief times P(maneuver | route), so a vehicle's
    hypotheses on a route sum to its belief in that route and over all its
    routes to 1. A route whose belief is 0 gets none, and a route without
    a stop line ahead only a drive hypothesis. Every rollout starts at the
    current states."""
    beliefs: dict[str, dict[str, float]] = {}
    poses: dict[str, dict[str, LongState]] = {}
    on_route: dict[str, dict[str, tuple[float, float]]] = {}
    for veh in others:
        cands = candidate_routes(veh, graph)
        if not cands:
            continue  # vehicle left the mapped area; nothing to predict
        belief = beliefs[veh.id] = route_belief(cands, params)
        poses[veh.id] = {rid: LongState(pose.s, veh.speed)
                         for rid, pose in cands.items()}
        for rid, pose in cands.items():
            on_route.setdefault(rid, {})[veh.id] = (belief[rid], pose.s)

    # each route's vehicles front to back: a leader is strictly ahead, so
    # its drive exists before its followers follow it
    drives: dict[tuple[str, str], tuple] = {}
    for rid, vehicles in on_route.items():
        profile = route_profile(graph.routes[rid])
        for vid, (belief, s) in sorted(vehicles.items(),
                                       key=lambda item: -item[1][1]):
            if belief <= 0.0:
                continue
            lid = closest_leader(s, vehicles, params.delta_r)
            leader = None if lid is None else drives[lid, rid][1]
            drives[vid, rid] = (leader, rollout(
                poses[vid][rid], profile, leader=leader, params=idm_params))

    top = {vid: max(b, key=lambda r: (b[r], r)) for vid, b in beliefs.items()}
    result: dict[str, list[Hypothesis]] = {}
    for vid in beliefs:
        hypotheses = []
        for rid, p_route in sorted(beliefs[vid].items()):
            if p_route <= 0.0:
                continue
            route = graph.routes[rid]
            start = poses[vid][rid]
            profile = route_profile(route)
            leader, drive_traj = drives[vid, rid]
            s_stop = stop_target(route, start.s)
            p_drive = 1.0  # no stop line ahead: the vehicle drives on
            if s_stop is not None:
                prioritized = [(top[o], drives[o, top[o]][1]) for o in top
                               if o != vid
                               and graph.has_priority_over(top[o], rid)]
                p_drive = drive_probability(route, drive_traj, prioritized,
                                            graph, params)
            hypotheses.append(Hypothesis(
                route_id=rid, maneuver=DRIVE, trajectory=drive_traj,
                probability=p_route * p_drive, leader=leader, profile=profile,
                start=start))
            if p_drive < 1.0:
                stop_traj = rollout(start, profile, leader=leader,
                                    stop_at=s_stop, params=idm_params)
                hypotheses.append(Hypothesis(
                    route_id=rid, maneuver=STOP, trajectory=stop_traj,
                    probability=p_route * (1.0 - p_drive), leader=leader,
                    stop_at=s_stop, profile=profile, start=start))
        result[vid] = hypotheses
    return result


def closest_leader(s: float, on_route: dict[str, tuple[float, float]],
                   delta_r: float) -> Optional[str]:
    """Id of the closest vehicle strictly ahead of arc length `s` on a route
    whose belief in that route exceeds delta_r; `on_route` maps vehicle id
    to (belief in the route, arc length on it); the smallest id on a tie.
    Prediction and the ego's options take every leader from here."""
    ahead = [(pos, vid) for vid, (belief, pos) in on_route.items()
             if belief > delta_r and pos > s]
    return min(ahead, default=(None, None))[1]
