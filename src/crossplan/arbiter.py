"""Scoring and selection of behavior options: ego progress versus courtesy
toward predicted other vehicles, with hysteresis on the previous choice."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .behavior import FREE, MERGE, STOP, BehaviorKind, BehaviorOption
from .errors import LengthMismatch, NoOption
from .geometry import ConflictZone, Route, RouteGraph
from .idm import (IdmParams, LongTrajectory, VEHICLE_LENGTH, closer_leader,
                  rollout)
from .prediction import Hypothesis, occupancy_window


@dataclass(frozen=True)
class ArbiterParams:
    w_p: float = 1.0
    w_c: float = 1.0
    h_a_const: float = 0.25    # m/s^2, merge hysteresis
    h_ttc_const: float = 0.25  # s, crossing hysteresis
    da_max: float = 0.9        # m/s^2, max allowed follower disturbance
    dt_max: float = 1.0        # s, min temporal margin in crossing zones

    def __post_init__(self):
        for name in ("w_p", "w_c", "h_a_const", "h_ttc_const", "da_max", "dt_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"ArbiterParams.{name} must be >= 0")


@dataclass
class ScoredOption:
    option: BehaviorOption
    progress_cost: float
    courtesy_cost: float  # probability-weighted sum over hypotheses
    total: float
    # (vehicle, hyp idx) -> cost, in scoring order up to and including the
    # first infinite term, which names the vehicle and hypothesis that
    # vetoed the option; later terms are not evaluated
    terms: dict = field(default_factory=dict)


def progress_cost(reference: LongTrajectory,
                  stop_reference: Optional[LongTrajectory]) -> float:
    """Mean acceleration advantage over the stopping baseline.

    Without an intersection ahead there is no stop baseline and the cost
    is 0 for every option.
    """
    if stop_reference is None:
        return 0.0
    if len(reference) != len(stop_reference) or reference.dt != stop_reference.dt:
        raise LengthMismatch("option and stop reference must share the grid")
    a = reference.accelerations()
    a_stop = stop_reference.accelerations()
    return float(np.mean(a_stop - a))


def merge_courtesy(option: BehaviorOption, follower: Hypothesis,
                   ego_route: Route, zone: ConflictZone, same_as_last: bool,
                   idm_params: IdmParams = IdmParams(),
                   params: ArbiterParams = ArbiterParams()) -> float:
    """Predicted disturbance of a merging-route follower: mean |a - a_react|
    minus the hysteresis bias; infinite above the disturbance limit.

    The follower's reaction is re-simulated with the ego reference acting
    as its leader from the moment the ego enters the shared lane.

    Entering the shared lane too close in time to the other vehicle's
    arrival at the merge point is rejected outright, with the same
    retention bias as the crossing-zone margin check.
    """
    ref = option.reference
    enter = ref.first_index_reaching(zone.start[ego_route.id])
    if enter is None:
        return 0.0  # ego never enters the shared lane within the horizon
    if enter > 0:
        other = follower.trajectory.first_index_reaching(
            zone.start[follower.route_id])
        if other is not None and other > 0:
            margin = abs(enter - other) * ref.dt
            h = params.h_ttc_const if same_as_last else -params.h_ttc_const
            if margin + h < params.dt_max:
                return math.inf
    delta_a = _follower_disturbance(option, follower, enter, ego_route, zone,
                                    idm_params)
    if delta_a <= 0.0:
        return 0.0
    h_a = params.h_a_const if same_as_last else -params.h_a_const
    cost = delta_a - h_a
    return cost if cost <= params.da_max else math.inf


def _follower_disturbance(option: BehaviorOption, follower: Hypothesis,
                          enter: int, ego_route: Route, zone: ConflictZone,
                          idm_params: IdmParams) -> float:
    """The follower's mean |a - a_react| (inf for a cut-in) when the ego
    reference enters the shared lane at sample `enter`."""
    ref = option.reference
    s_m_ego = zone.start[ego_route.id]
    s_m_f = zone.start[follower.route_id]
    # ego reference mapped onto the follower's arc length; before entry the
    # ego is irrelevant (parked far ahead) so the follower drives its plan
    n = len(ref)
    ego_s_mapped = np.full(n, np.inf)
    ego_s_mapped[enter:] = s_m_f + (ref.s[enter:] - s_m_ego)
    f_traj = follower.trajectory
    gap_ahead = (float(f_traj.s[enter]) - 0.5 * VEHICLE_LENGTH
                 - float(ego_s_mapped[enter]) - 0.5 * VEHICLE_LENGTH)
    if gap_ahead >= 0.0:
        # The other vehicle is ahead at entry: the ego merges behind it.
        # Entering closer than the desired following gap is not a safe
        # merge state (the ego would cut in on its own new leader), so
        # such references are rejected outright.
        ve = float(ref.v[enter])
        want = idm_params.desired_gap(ve, ve - float(f_traj.v[enter]))
        if gap_ahead < 0.85 * max(want, idm_params.s0):
            return math.inf
        return 0.0
    ego_as_leader = LongTrajectory(ego_s_mapped, ref.v, dt=ref.dt)
    leader = closer_leader(follower.leader, ego_as_leader)
    if leader is follower.leader:
        # The follower's own leader binds throughout: the reaction would
        # reproduce its plan exactly (the `Hypothesis` invariant).
        return 0.0
    react = rollout(follower.start, follower.profile, leader=leader,
                    stop_at=follower.stop_at, params=idm_params)
    return float(np.mean(np.abs(f_traj.accelerations()
                                - react.accelerations())))


def crossing_courtesy(option: BehaviorOption, crosser: Hypothesis,
                      ego_route: Route, zone: ConflictZone,
                      same_as_last: bool,
                      params: ArbiterParams = ArbiterParams()) -> float:
    """0 when the temporal margin in the crossing zone is large enough in
    either passing order, infinite otherwise."""
    if zone.kind != "crossing":
        return 0.0
    t = occupancy_window(option.reference, zone, ego_route.id)
    if t is None:
        return 0.0  # ego never enters the zone: maximally passive
    t_entry_e, t_exit_e = t
    tc = occupancy_window(crosser.trajectory, zone, crosser.route_id)
    if tc is None:
        return 0.0  # crosser never reaches the zone within the horizon
    t_entry_c, t_exit_c = tc
    h = params.h_ttc_const if same_as_last else -params.h_ttc_const
    go_first = (t_entry_c - t_exit_e) + h >= params.dt_max
    go_after = (t_entry_e - t_exit_c) + h >= params.dt_max
    return 0.0 if (go_first or go_after) else math.inf


def score_options(options: list[BehaviorOption],
                  predictions: dict[str, list[Hypothesis]],
                  ego_route: Route, graph: RouteGraph,
                  last_kind: Optional[BehaviorKind] = None,
                  idm_params: IdmParams = IdmParams(),
                  params: ArbiterParams = ArbiterParams()) -> list[ScoredOption]:
    """Cost every option: w_p * progress + w_c * sum_i sum_k P * courtesy.

    Options that make less initial progress than the stop baseline are
    pruned (they are dominated by stopping) except the stop option itself.
    An option's courtesy sum stops at its first infinite term: every term
    is finite or +inf and hypotheses of probability 0 are skipped, so no
    later term could change the sum.
    """
    stop_ref = next((o.reference for o in options if o.kind.name == STOP), None)
    scored = []
    for opt in options:
        c_p = progress_cost(opt.reference, stop_ref)
        if stop_ref is not None and opt.kind.name != STOP and c_p >= 0.0:
            continue
        c_c, terms = _courtesy(opt, predictions, ego_route, graph,
                               opt.kind == last_kind, idm_params, params)
        total = params.w_p * c_p + params.w_c * c_c
        scored.append(ScoredOption(option=opt, progress_cost=c_p,
                                   courtesy_cost=c_c, total=total,
                                   terms=terms))
    return scored


def _courtesy(opt: BehaviorOption, predictions: dict[str, list[Hypothesis]],
              ego_route: Route, graph: RouteGraph, same: bool,
              idm_params: IdmParams,
              params: ArbiterParams) -> tuple[float, dict]:
    """(sum_i sum_k P * courtesy, terms) of one option, up to the veto."""
    c_c = 0.0
    terms = {}
    for vid in sorted(predictions):
        for k, hyp in enumerate(predictions[vid]):
            if hyp.probability == 0.0:
                continue
            zone = graph.zone_between(ego_route.id, hyp.route_id)
            if zone is None:  # the ego's own route included
                continue
            if opt.kind.name == STOP:
                term = 0.0  # the stop option never enters the conflict
            elif zone.kind == "merging":
                term = merge_courtesy(opt, hyp, ego_route, zone, same,
                                      idm_params, params)
            else:
                term = crossing_courtesy(opt, hyp, ego_route, zone, same,
                                         params)
            terms[(vid, k)] = term
            c_c += hyp.probability * term
            if c_c == math.inf:
                return c_c, terms
    return c_c, terms


_KIND_ORDER = {STOP: 0, FREE: 1, MERGE: 2}


def select(scored: list[ScoredOption],
           last_kind: Optional[BehaviorKind] = None) -> BehaviorOption:
    """Minimum-total option; infinite totals fall back to stopping.

    Ties prefer the previously selected kind, then stop < follow < merge.
    When every option is vetoed and there is no stop option, the fallback
    is `scored[0]`, the follow option (nothing is pruned without a stop
    reference), which carries a retained shadowed merge's label.
    """
    if not scored:
        raise NoOption("no scored options")
    finite = [s for s in scored if math.isfinite(s.total)]
    if not finite:
        for s in scored:
            if s.option.kind.name == STOP:
                return s.option
        return scored[0].option

    def order(s: ScoredOption):
        return (s.total, 0 if s.option.kind == last_kind else 1,
                _KIND_ORDER.get(s.option.kind.name, 3),
                s.option.kind.target_vehicle or "")

    return min(finite, key=order).option
