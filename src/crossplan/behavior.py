"""Ego behavior options as IDM reference trajectories: free drive or car
following, stopping at the intersection, and merging into traffic gaps via
virtual leading vehicles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoEgoRoute
from .geometry import ConflictZone, Route, RouteGraph
from .idm import (PROFILE_STEP, IdmParams, LongState, LongTrajectory,
                  SpeedProfile, closer_leader, rollout, route_profile,
                  stop_target, target_speed_profile)
from .prediction import (DRIVE, Hypothesis, PredictorParams,
                         closest_leader)

FREE = "follow_or_free"
STOP = "stop"
MERGE = "merge_behind"


@dataclass(frozen=True)
class BehaviorKind:
    """Option identity, which hysteresis retains: one merge per vehicle.

    A merge whose reference the real leader shadows is not an option of
    its own; when it is the retained kind, the follow option carries it.
    """

    name: str
    target_vehicle: Optional[str] = None

    def __str__(self):
        if self.name == MERGE:
            return f"{MERGE}({self.target_vehicle})"
        return self.name


@dataclass
class VirtualLeader:
    trajectory: LongTrajectory  # on ego-route arc length
    merge_index: int  # sample at which the real leader reaches the merge


@dataclass
class BehaviorOption:
    kind: BehaviorKind
    reference: LongTrajectory
    virtual_leader: Optional[VirtualLeader] = None


def build_virtual_leader(rl_traj: LongTrajectory, rl_route_id: str,
                         merge_zone: ConflictZone, ego_route: Route,
                         ego_state: LongState,
                         params: IdmParams = IdmParams()
                         ) -> Optional[VirtualLeader]:
    """Construct a virtual leader on the ego route mirroring a real leader
    predicted on a merging route.

    The VL is anchored at the shared-lane entry when the real leader is
    predicted to reach it; earlier states come from backward integration of
    an IDM speed profile toward that entry, later states map the real
    leader's prediction onto ego-route arc length. Returns None when the
    real leader never reaches the entry within the horizon or the backward
    integration falls behind the ego (gap already passed).
    """
    if merge_zone.kind != "merging":
        return None
    s_m_ego = merge_zone.start[ego_route.id]
    s_m_rl = merge_zone.start[rl_route_id]
    k_merge = rl_traj.first_index_reaching(s_m_rl)
    if k_merge is None:
        return None
    n = len(rl_traj)
    dt = rl_traj.dt
    v_rl = float(rl_traj.v[k_merge])

    s_vl = np.empty(n)
    v_vl = np.empty(n)
    # at and after the merge the VL is the mapped real leader
    s_vl[k_merge:] = s_m_ego + (rl_traj.s[k_merge:] - s_m_rl)
    v_vl[k_merge:] = rl_traj.v[k_merge:]

    if k_merge > 0:
        profile = _approach_profile(ego_route, ego_state, max(v_rl, 0.1),
                                    params, end_s=s_m_ego)
        s = float(s_vl[k_merge])
        for k in range(k_merge - 1, -1, -1):
            v_here = profile.v_at(s)
            s = s - v_here * dt
            if s <= ego_state.s:
                return None
            s_vl[k] = s
            v_vl[k] = v_here

    return VirtualLeader(LongTrajectory(s_vl, v_vl, dt=dt), k_merge)


def _approach_profile(ego_route: Route, ego_state: LongState, v_target: float,
                      params: IdmParams, end_s: float) -> SpeedProfile:
    """Speed over arc length reached by the ego free-driving toward the
    merge with the real leader's entry speed as curvature-adapted target."""
    base = target_speed_profile(ego_route, v_target)
    length = max(min(end_s, ego_route.length) - ego_state.s, PROFILE_STEP)
    m = int(math.ceil(length / PROFILE_STEP)) + 2
    v = np.empty(m)
    vv = max(ego_state.v, 0.0)
    a_idm, delta = params.a_idm, params.delta
    for i in range(m):
        v[i] = vv
        v0 = max(base.v_at(ego_state.s + i * PROFILE_STEP), 0.1)
        a = a_idm * (1.0 - (vv / v0) ** delta)  # free-road IDM
        # advance by one spatial step: v dv = a ds
        vv = math.sqrt(max(vv * vv + 2.0 * a * PROFILE_STEP, 0.0))
        if vv < 0.1:
            vv = 0.1  # keep the profile positive so backward integration moves
    return SpeedProfile(s0_grid=ego_state.s, ds=PROFILE_STEP, v=v)


def generate_options(ego: LongState, ego_route: Route,
                     predictions: dict[str, list[Hypothesis]],
                     graph: RouteGraph,
                     last_kind: Optional[BehaviorKind],
                     idm_params: IdmParams = IdmParams(),
                     pred_params: PredictorParams = PredictorParams(),
                     include_merge: bool = True) -> list[BehaviorOption]:
    """Enumerate ego behavior options, each with a reference on the
    planning grid; `options[0]` is the follow option.

    Each distinct reference is one option. A merge whose rollout the real
    leader shadows (`closer_leader` returns that leader, so the reference
    would be the follow reference bit for bit) is not rolled out: when it
    is `last_kind`, the follow option takes its kind and virtual leader so
    that hysteresis keeps the merge; otherwise it is dropped.
    """
    if ego_route is None:
        raise NoEgoRoute("ego has no route")
    profile = route_profile(ego_route)
    options: list[BehaviorOption] = []

    leader = _ego_route_leader(ego, ego_route.id, predictions, pred_params)
    free_ref = rollout(ego, profile, leader=leader, params=idm_params)
    options.append(BehaviorOption(kind=BehaviorKind(FREE), reference=free_ref))

    s_stop = stop_target(ego_route, ego.s)
    if s_stop is not None:
        stop_ref = rollout(ego, profile, leader=leader, stop_at=s_stop,
                           params=idm_params)
        options.append(BehaviorOption(kind=BehaviorKind(STOP),
                                      reference=stop_ref))

    if include_merge:
        merges = []
        for vid in sorted(predictions):
            for hyp in predictions[vid]:
                if hyp.probability < pred_params.delta_r:
                    continue
                zone = graph.zone_between(ego_route.id, hyp.route_id)
                if zone is None or zone.kind != "merging":
                    continue
                vl = build_virtual_leader(hyp.trajectory, hyp.route_id, zone,
                                          ego_route, ego, idm_params)
                if vl is None:
                    continue
                kind = BehaviorKind(MERGE, target_vehicle=vid)
                binding = closer_leader(leader, vl.trajectory)
                if binding is leader:
                    if kind == last_kind:
                        options[0] = BehaviorOption(kind, free_ref, vl)
                    continue
                ref = rollout(ego, profile, leader=binding, params=idm_params)
                merges.append(BehaviorOption(kind=kind, reference=ref,
                                             virtual_leader=vl))
        merges.sort(key=lambda o: (o.virtual_leader.merge_index,
                                   o.kind.target_vehicle))
        options.extend(merges)
    return options


def _ego_route_leader(ego: LongState, route_id: str,
                      predictions: dict[str, list[Hypothesis]],
                      pred_params: PredictorParams) -> Optional[LongTrajectory]:
    """Drive hypothesis on the ego's route of the vehicle that
    `closest_leader` makes the ego's leader there, weighing each vehicle
    by its summed hypothesis probability on that route."""
    hyps = {vid: [h for h in hs if h.route_id == route_id]
            for vid, hs in predictions.items()}
    on_route = {vid: (sum(h.probability for h in hs), hs[0].trajectory.s[0])
                for vid, hs in hyps.items() if hs}
    lid = closest_leader(ego.s, on_route, pred_params.delta_r)
    return None if lid is None else next(
        h.trajectory for h in hyps[lid] if h.maneuver == DRIVE)
