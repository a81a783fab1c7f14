"""Behavior option generation and virtual-leader construction."""

import numpy as np
import pytest

from crossplan import (
    BehaviorKind,
    Hypothesis,
    LongState,
    LongTrajectory,
    behavior,
    build_virtual_leader,
    generate_options,
    rollout,
)
from crossplan.behavior import FREE, MERGE, STOP
from crossplan.errors import NoEgoRoute
from crossplan.idm import closer_leader, route_profile

from scenes import merge_graph

GRAPH = merge_graph()
RAMP = GRAPH.routes["ramp"]
MAIN = GRAPH.routes["main"]
ZONE = GRAPH.zone_between("ramp", "main")


def _main_rollout(s0, v0, n=201, dt=0.05):
    return rollout(LongState(s0, v0), route_profile(MAIN), n=n, dt=dt)


def _random_merge_config(rng):
    s_rl = ZONE.start["main"] - float(rng.uniform(30.0, 140.0))
    v_rl = float(rng.uniform(8.0, 22.0))
    s_ego = ZONE.start["ramp"] - float(rng.uniform(30.0, 120.0))
    v_ego = float(rng.uniform(8.0, 18.0))
    return _main_rollout(s_rl, v_rl), LongState(s_ego, v_ego)


def test_virtual_leader_boundary_condition():
    """At the merge instant the VL sits at the merge point with the real
    leader's speed."""
    rng = np.random.default_rng(11)
    built = 0
    for _ in range(60):
        rl_traj, ego = _random_merge_config(rng)
        vl = build_virtual_leader(rl_traj, "main", ZONE, RAMP, ego)
        if vl is None:
            continue
        built += 1
        k = vl.merge_index
        v_here = vl.trajectory.v[k]
        assert abs(vl.trajectory.s[k] - ZONE.start["ramp"]) <= v_here * vl.trajectory.dt
        assert abs(vl.trajectory.v[k] - rl_traj.v[k]) <= 0.1
    assert built >= 30  # the random configs must mostly be constructible


def test_virtual_leader_tracks_real_leader_after_merge():
    rl_traj = _main_rollout(ZONE.start["main"] - 60.0, 15.0)
    ego = LongState(ZONE.start["ramp"] - 80.0, 12.0)
    vl = build_virtual_leader(rl_traj, "main", ZONE, RAMP, ego)
    assert vl is not None
    k = vl.merge_index
    # past the merge point both run on the shared lane: identical motion
    shift = vl.trajectory.s[k:] - ZONE.start["ramp"]
    rl_shift = rl_traj.s[k:] - rl_traj.s[k]
    assert np.allclose(shift - shift[0], rl_shift, atol=1e-9)
    assert np.allclose(vl.trajectory.v[k:], rl_traj.v[k:], atol=1e-9)


def test_virtual_leader_none_when_leader_never_reaches_entry():
    # standing far from the merge point: no arrival within the horizon
    far = LongTrajectory(np.full(201, 50.0), np.zeros(201), 0.05)
    ego = LongState(ZONE.start["ramp"] - 80.0, 12.0)
    assert build_virtual_leader(far, "main", ZONE, RAMP, ego) is None


def test_virtual_leader_none_when_ego_already_ahead():
    rl_traj = _main_rollout(ZONE.start["main"] - 120.0, 10.0)
    ego = LongState(ZONE.start["ramp"] - 1.0, 18.0)
    assert build_virtual_leader(rl_traj, "main", ZONE, RAMP, ego) is None


def _predictions(prob, s_rl=None, v_rl=16.0):
    s_rl = ZONE.start["main"] - 70.0 if s_rl is None else s_rl
    traj = _main_rollout(s_rl, v_rl)
    return {"veh1": [Hypothesis(route_id="main", maneuver="drive",
                                trajectory=traj, probability=prob)]}


def test_option_kinds_depend_on_position_and_beliefs():
    ego = LongState(RAMP.intersection_start - 60.0, 14.0)
    options = generate_options(ego, RAMP, _predictions(0.9), GRAPH, None)
    names = [o.kind.name for o in options]
    assert FREE in names
    assert STOP in names
    merge = [o for o in options if o.kind.name == MERGE]
    assert len(merge) == 1
    assert merge[0].kind.target_vehicle == "veh1"
    assert merge[0].virtual_leader is not None
    vl = merge[0].virtual_leader
    assert 0 <= vl.merge_index < len(vl.trajectory)

    # below the relevance threshold the merge option disappears
    names = [o.kind.name
             for o in generate_options(ego, RAMP, _predictions(0.05), GRAPH,
                                       None)]
    assert MERGE not in names

    # past the intersection entry there is no stop option
    past = LongState(RAMP.intersection_start + 8.0, 14.0)
    names = [o.kind.name
             for o in generate_options(past, RAMP, _predictions(0.9), GRAPH,
                                       None)]
    assert STOP not in names


def test_merge_options_disabled_on_request():
    ego = LongState(RAMP.intersection_start - 60.0, 14.0)
    options = generate_options(ego, RAMP, _predictions(0.9), GRAPH, None,
                               include_merge=False)
    assert all(o.kind.name != MERGE for o in options)


def test_merge_options_sorted_by_merge_time():
    ego = LongState(RAMP.intersection_start - 90.0, 12.0)
    preds = {
        "near": [Hypothesis("main", "drive",
                            _main_rollout(ZONE.start["main"] - 40.0, 18.0),
                            1.0)],
        "far": [Hypothesis("main", "drive",
                           _main_rollout(ZONE.start["main"] - 110.0, 18.0),
                           1.0)],
    }
    merges = [o for o in generate_options(ego, RAMP, preds, GRAPH, None)
              if o.kind.name == MERGE]
    assert len(merges) == 2
    assert (merges[0].virtual_leader.merge_index
            <= merges[1].virtual_leader.merge_index)
    assert merges[0].kind.target_vehicle == "near"


def _shadowed_merge():
    """A ramp scene whose real leader, slow and just ahead of the ego,
    binds at every sample over veh1's virtual leader."""
    ego = LongState(RAMP.intersection_start - 60.0, 14.0)
    preds = _predictions(0.9, s_rl=ZONE.start["main"] - 30.0)
    t = np.arange(201) * 0.05
    lead = LongTrajectory(ego.s + 25.0 + 5.0 * t, np.full(201, 5.0), 0.05)
    preds["lead"] = [Hypothesis("ramp", "drive", lead, 1.0)]
    vl = build_virtual_leader(preds["veh1"][0].trajectory, "main", ZONE,
                              RAMP, ego)
    assert closer_leader(lead, vl.trajectory) is lead
    return ego, preds, vl


def _recorded_options(monkeypatch, ego, preds, last_kind):
    """generate_options' result and the references it rolled out."""
    made = []
    real = behavior.rollout

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(behavior, "rollout", recording)
    return generate_options(ego, RAMP, preds, GRAPH, last_kind), made


def test_a_shadowed_merge_is_not_an_option(monkeypatch):
    ego, preds, _ = _shadowed_merge()
    options, made = _recorded_options(monkeypatch, ego, preds, None)
    # follow and stop; the merge's reference would be the follow reference
    assert [o.kind for o in options] == [BehaviorKind(FREE),
                                         BehaviorKind(STOP)]
    assert len(made) == 2
    assert all(o.reference is ref for o, ref in zip(options, made))


def test_a_retained_shadowed_merge_is_the_follow_option(monkeypatch):
    ego, preds, vl = _shadowed_merge()
    merge = BehaviorKind(MERGE, target_vehicle="veh1")
    options, made = _recorded_options(monkeypatch, ego, preds, merge)
    assert [o.kind for o in options] == [merge, BehaviorKind(STOP)]
    follow = options[0]
    assert len(made) == 2
    assert follow.reference is made[0]  # the follow reference, not a copy
    assert follow.virtual_leader.merge_index == vl.merge_index
    assert np.array_equal(follow.virtual_leader.trajectory.s, vl.trajectory.s)
    free = generate_options(ego, RAMP, preds, GRAPH, None)[0]
    assert np.array_equal(follow.reference.s, free.reference.s)
    assert np.array_equal(follow.reference.v, free.reference.v)


def test_stop_reference_halts_before_intersection():
    ego = LongState(RAMP.intersection_start - 80.0, 14.0)
    options = generate_options(ego, RAMP, {}, GRAPH, None)
    stop = next(o for o in options if o.kind.name == STOP)
    # the approach is asymptotic; the horizon ends nearly at rest
    assert stop.reference.v[-1] < 1.0
    assert np.all(stop.reference.s <= RAMP.intersection_start)
    assert np.all(np.diff(stop.reference.v) <= 1e-12)


def test_references_share_the_planning_grid():
    ego = LongState(RAMP.intersection_start - 60.0, 14.0)
    options = generate_options(ego, RAMP, _predictions(0.9), GRAPH, None)
    for o in options:
        assert len(o.reference) == 201
        assert o.reference.dt == pytest.approx(0.05)
        assert o.reference.s[0] == pytest.approx(ego.s)
        assert o.reference.v[0] == pytest.approx(ego.v)


def test_missing_ego_route_raises():
    with pytest.raises(NoEgoRoute):
        generate_options(LongState(0.0, 10.0), None, {}, GRAPH, None)


def test_kind_identity_and_formatting():
    # one identity per (option, target vehicle), whichever hypothesis of
    # that vehicle the option was built from
    merge = BehaviorKind(MERGE, target_vehicle="veh1")
    assert merge == BehaviorKind(MERGE, target_vehicle="veh1")
    assert merge != BehaviorKind(MERGE, target_vehicle="veh2")
    assert merge != BehaviorKind(FREE)
    assert str(merge) == "merge_behind(veh1)"
    assert str(BehaviorKind(FREE)) == FREE
