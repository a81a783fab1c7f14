"""Option scoring: progress cost, courtesy costs, hysteresis, selection."""

import dataclasses
import math
import struct
from unittest import mock

import numpy as np
import pytest

from crossplan import (
    ArbiterParams,
    BehaviorKind,
    BehaviorOption,
    Hypothesis,
    IdmParams,
    LongState,
    LongTrajectory,
    SimConfig,
    arbiter,
    generate_options,
    load_scenario,
    predict,
    rollout,
    run,
    score_options,
    select,
)
from crossplan.arbiter import (
    ScoredOption,
    crossing_courtesy,
    merge_courtesy,
    progress_cost,
)
from crossplan.behavior import FREE, MERGE, STOP
from crossplan.errors import LengthMismatch, NoOption
from crossplan.idm import VEHICLE_LENGTH, closer_leader
from crossplan.prediction import VehicleState

from scenes import (MERGE_SCENARIO, T_JUNCTION_SCENARIO, add_random_vehicles,
                    merge_graph, reaching_at, t_junction_graph)

MERGE_GRAPH = merge_graph()
T_GRAPH = t_junction_graph()


def _traj(v_seq, dt=0.05, s0=0.0):
    v = np.asarray(v_seq, dtype=float)
    s = s0 + np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)])
    return LongTrajectory(s, v, dt)


def _constant(s0, v, n=201, dt=0.05):
    t = np.arange(n) * dt
    return LongTrajectory(s0 + v * t, np.full(n, v), dt)


def test_progress_cost_is_mean_acceleration_advantage():
    dt = 0.05
    option = _traj(np.linspace(10.0, 15.0, 101), dt)   # +1 m/s^2
    stop = _traj(np.linspace(10.0, 0.0, 101), dt)      # -2 m/s^2
    c = progress_cost(option, stop)
    a = option.accelerations()
    a_stop = stop.accelerations()
    assert c == pytest.approx(float(np.mean(a_stop - a)))
    assert c == pytest.approx(-3.0, abs=1e-9)
    # faster than the baseline means negative (better) cost
    assert c < 0.0


def test_progress_cost_without_stop_baseline_is_zero():
    option = _traj(np.linspace(10.0, 15.0, 101))
    assert progress_cost(option, None) == 0.0


def test_progress_cost_grid_mismatch_raises():
    a = _traj(np.full(101, 10.0), dt=0.05)
    b = _traj(np.full(90, 10.0), dt=0.05)
    with pytest.raises(LengthMismatch):
        progress_cost(a, b)


# --- crossing courtesy -------------------------------------------------------

ZONE_X = T_GRAPH.zone_between("side", "south")
SIDE = T_GRAPH.routes["side"]


def _crossing_pair(offset, v=10.0):
    """Ego reference through the crossing zone plus a crosser arriving
    `offset` seconds after the ego does."""
    lo_e, _ = ZONE_X.interval("side")
    lo_c, _ = ZONE_X.interval("south")
    ego_ref = _constant(lo_e - 5.0 * v, v)  # enters the area after 5 s
    crosser = Hypothesis("south", "drive",
                         _constant(lo_c - (5.0 + offset) * v, v), 1.0)
    option = BehaviorOption(BehaviorKind(FREE), ego_ref)
    return option, crosser


@pytest.mark.parametrize("offset", np.linspace(-6.0, 6.0, 49))
def test_crossing_retention_bias_is_one_directional(offset):
    option, crosser = _crossing_pair(float(offset))
    kept = crossing_courtesy(option, crosser, SIDE, ZONE_X, True)
    fresh = crossing_courtesy(option, crosser, SIDE, ZONE_X, False)
    assert kept in (0.0, math.inf)
    assert fresh in (0.0, math.inf)
    assert kept <= fresh  # retention can only relax the margin


def test_crossing_hysteresis_band_is_nonempty():
    flips = 0
    for offset in np.linspace(-6.0, 6.0, 121):
        option, crosser = _crossing_pair(float(offset))
        kept = crossing_courtesy(option, crosser, SIDE, ZONE_X, True)
        fresh = crossing_courtesy(option, crosser, SIDE, ZONE_X, False)
        if kept == 0.0 and fresh == math.inf:
            flips += 1
    assert flips > 0


def test_crossing_courtesy_clear_margins():
    # crosser arrives long after the ego cleared: free to go first
    option, crosser = _crossing_pair(8.0)
    assert crossing_courtesy(option, crosser, SIDE, ZONE_X, False) == 0.0
    # crosser cleared long before the ego arrives: free to go after
    option, crosser = _crossing_pair(-8.0)
    assert crossing_courtesy(option, crosser, SIDE, ZONE_X, False) == 0.0
    # simultaneous occupancy is vetoed
    option, crosser = _crossing_pair(0.0)
    assert crossing_courtesy(option, crosser, SIDE, ZONE_X, False) == math.inf


@pytest.mark.parametrize("t0", [0.05, 4.8])
@pytest.mark.parametrize("ego_out, crosser_in", [(15, 40), (18, 43)])
def test_crossing_decision_does_not_depend_on_the_clock(t0, ego_out,
                                                        crosser_in):
    # the ego clears the zone 25 samples (1.25 s) before the crosser enters
    # it: without retention (h = -0.25 s) exactly the 1.0 s margin. Summed
    # onto a clock, (0.05 + 40 dt) - (0.05 + 15 dt) is 1.2499999999999998.
    _, hi_e = ZONE_X.interval("side")
    lo_c, _ = ZONE_X.interval("south")
    half = 0.5 * VEHICLE_LENGTH

    def courtesy(clock):
        option = BehaviorOption(BehaviorKind(FREE),
                                reaching_at(hi_e + half, ego_out, clock))
        crosser = Hypothesis("south", "drive",
                             reaching_at(lo_c - half, crosser_in, clock), 1.0)
        return crossing_courtesy(option, crosser, SIDE, ZONE_X, False)

    assert courtesy(0.0) == 0.0
    assert courtesy(t0) == 0.0


def test_crossing_courtesy_passive_cases_cost_nothing():
    lo_c, _ = ZONE_X.interval("south")
    standing = BehaviorOption(BehaviorKind(STOP), _constant(0.0, 0.0))
    crosser = Hypothesis("south", "drive", _constant(lo_c - 30.0, 10.0), 1.0)
    assert crossing_courtesy(standing, crosser, SIDE, ZONE_X, False) == 0.0
    option, _ = _crossing_pair(0.0)
    parked = Hypothesis("south", "drive", _constant(0.0, 0.0), 1.0)
    assert crossing_courtesy(option, parked, SIDE, ZONE_X, False) == 0.0


# --- merge courtesy ----------------------------------------------------------

ZONE_M = MERGE_GRAPH.zone_between("ramp", "main")
RAMP = MERGE_GRAPH.routes["ramp"]


def _merge_pair(offset, v=15.0):
    from crossplan import rollout
    from crossplan.idm import route_profile

    lo_e = ZONE_M.start["ramp"]
    lo_f = ZONE_M.start["main"]
    ego_ref = _constant(lo_e - 4.0 * v, v)
    start = LongState(lo_f - (4.0 + offset) * v, v)
    profile = route_profile(MERGE_GRAPH.routes["main"])
    plan = rollout(start, profile)
    follower = Hypothesis("main", "drive", plan, 1.0,
                          profile=profile, start=start)
    option = BehaviorOption(BehaviorKind(MERGE, "veh1"), ego_ref)
    return option, follower


@pytest.mark.parametrize("offset", np.linspace(-5.0, 8.0, 53))
def test_merge_retention_never_increases_cost(offset):
    option, follower = _merge_pair(float(offset))
    kept = merge_courtesy(option, follower, RAMP, ZONE_M, True)
    fresh = merge_courtesy(option, follower, RAMP, ZONE_M, False)
    assert kept <= fresh + 1e-12
    if math.isfinite(kept):
        # a retained option gets at most the hysteresis discount
        assert kept >= -ArbiterParams().h_a_const - 1e-12


def test_merge_hysteresis_band_is_nonempty():
    flips = 0
    for offset in np.linspace(-5.0, 8.0, 105):
        option, follower = _merge_pair(float(offset))
        kept = merge_courtesy(option, follower, RAMP, ZONE_M, True)
        fresh = merge_courtesy(option, follower, RAMP, ZONE_M, False)
        if math.isfinite(kept) and fresh == math.inf:
            flips += 1
    assert flips > 0


def test_merge_courtesy_nonnegative_and_disturbance_free_cases():
    # follower far ahead of the ego entry: no disturbance, no cost
    option, follower = _merge_pair(-8.0)
    assert merge_courtesy(option, follower, RAMP, ZONE_M, False) == 0.0
    # tight cut-in right in front of the follower is vetoed
    option, follower = _merge_pair(0.25)
    assert merge_courtesy(option, follower, RAMP, ZONE_M, False) == math.inf


# --- scoring and selection ---------------------------------------------------


def _merge_scene(ego_s=None, ego_v=14.0):
    ego_s = RAMP.intersection_start - 60.0 if ego_s is None else ego_s
    main = MERGE_GRAPH.routes["main"]
    s1 = ZONE_M.start["main"] - 70.0
    others = [VehicleState("veh1", main.centerline.point_at(s1),
                           main.centerline.heading_at(s1), 17.0)]
    ego = LongState(ego_s, ego_v)
    preds = predict(others, MERGE_GRAPH)
    options = generate_options(ego, RAMP, preds, MERGE_GRAPH, None)
    return options, preds


def test_stop_option_has_zero_progress_and_courtesy():
    options, preds = _merge_scene()
    scored = score_options(options, preds, RAMP, MERGE_GRAPH)
    stop = next(s for s in scored if s.option.kind.name == STOP)
    assert stop.progress_cost == 0.0
    assert stop.courtesy_cost == 0.0
    assert all(v == 0.0 for v in stop.terms.values())
    assert stop.total == 0.0


def test_non_stop_options_dominated_by_stopping_are_pruned():
    options, preds = _merge_scene()
    stop_ref = next(o.reference for o in options if o.kind.name == STOP)
    sluggish = BehaviorOption(
        BehaviorKind(FREE),
        _traj(np.linspace(14.0, 0.0, 201), s0=stop_ref.s[0]))
    assert progress_cost(sluggish.reference, stop_ref) > 0.0
    scored = score_options(options + [sluggish], preds, RAMP, MERGE_GRAPH)
    assert sluggish not in [s.option for s in scored]
    kinds = {s.option.kind.name for s in scored}
    assert STOP in kinds and FREE in kinds


def test_total_combines_weighted_progress_and_courtesy():
    options, preds = _merge_scene()
    params = ArbiterParams(w_p=2.0, w_c=3.0)
    scored = score_options(options, preds, RAMP, MERGE_GRAPH, params=params)
    for s in scored:
        if math.isfinite(s.total):
            assert s.total == pytest.approx(
                2.0 * s.progress_cost + 3.0 * s.courtesy_cost)


def test_argmin_invariant_under_per_vehicle_renormalization():
    options, preds = _merge_scene()
    base = select(score_options(options, preds, RAMP, MERGE_GRAPH))
    rng = np.random.default_rng(3)
    for _ in range(5):
        scaled = {}
        for vid, hyps in preds.items():
            c = float(rng.uniform(0.2, 5.0))
            raw = [h.probability * c for h in hyps]
            total = sum(raw)
            scaled[vid] = [
                Hypothesis(h.route_id, h.maneuver, h.trajectory, p / total,
                           leader=h.leader, stop_at=h.stop_at,
                           profile=h.profile, start=h.start)
                for h, p in zip(hyps, raw)]
        again = select(score_options(options, scaled, RAMP, MERGE_GRAPH))
        assert again.kind == base.kind


def test_select_prefers_retained_kind_on_ties():
    free = ScoredOption(BehaviorOption(BehaviorKind(FREE), _constant(0, 10)),
                        -1.0, 0.0, -1.0)
    merge = ScoredOption(
        BehaviorOption(BehaviorKind(MERGE, "veh1"), _constant(0, 10)),
        -1.0, 0.0, -1.0)
    assert select([free, merge]).kind.name == FREE  # stop < free < merge
    assert select([free, merge],
                  last_kind=BehaviorKind(MERGE, "veh1")).kind.name == MERGE


def test_select_falls_back_to_stop_when_everything_is_vetoed():
    stop = ScoredOption(BehaviorOption(BehaviorKind(STOP), _constant(0, 0)),
                        0.0, math.inf, math.inf)
    free = ScoredOption(BehaviorOption(BehaviorKind(FREE), _constant(0, 10)),
                        -2.0, math.inf, math.inf)
    assert select([free, stop]).kind.name == STOP


def test_select_falls_back_to_the_follow_option_without_a_stop_option():
    # without a stop reference nothing is pruned, so scored[0] is the
    # follow option, here carrying a retained shadowed merge's label; with
    # w_c = 0 a vetoed total is nan instead of inf
    retained = BehaviorKind(MERGE, "veh1")
    for total in (math.inf, math.nan):
        follow = ScoredOption(BehaviorOption(retained, _constant(0, 10)),
                              -1.0, math.inf, total)
        merge = ScoredOption(
            BehaviorOption(BehaviorKind(MERGE, "veh2"), _constant(0, 12)),
            -2.0, math.inf, total)
        assert select([follow, merge]) is follow.option
        assert select([follow, merge], last_kind=retained) is follow.option


def test_select_requires_candidates():
    with pytest.raises(NoOption):
        select([])


def test_arbiter_params_validation():
    with pytest.raises(ValueError):
        ArbiterParams(w_c=-0.1)
    with pytest.raises(ValueError):
        ArbiterParams(dt_max=-1.0)


# --- skipped work: reference equality ----------------------------------------


def full_follower_disturbance(option, follower, enter, ego_route, zone,
                              idm_params):
    """The follower disturbance with the reaction always re-simulated: the
    shadowed-leader shortcut of `arbiter._follower_disturbance` left out,
    kept to check that shortcut against."""
    ref = option.reference
    s_m_ego = zone.start[ego_route.id]
    s_m_f = zone.start[follower.route_id]
    n = len(ref)
    ego_s_mapped = np.full(n, np.inf)
    ego_s_mapped[enter:] = s_m_f + (ref.s[enter:] - s_m_ego)
    f_traj = follower.trajectory
    gap_ahead = (float(f_traj.s[enter]) - 0.5 * VEHICLE_LENGTH
                 - float(ego_s_mapped[enter]) - 0.5 * VEHICLE_LENGTH)
    if gap_ahead >= 0.0:
        ve = float(ref.v[enter])
        want = idm_params.desired_gap(ve, ve - float(f_traj.v[enter]))
        return math.inf if gap_ahead < 0.85 * max(want, idm_params.s0) else 0.0
    ego_as_leader = LongTrajectory(ego_s_mapped, ref.v, dt=ref.dt)
    react = arbiter.rollout(
        follower.start, follower.profile,
        leader=closer_leader(follower.leader, ego_as_leader),
        stop_at=follower.stop_at, n=n, dt=ref.dt, params=idm_params)
    return float(np.mean(np.abs(f_traj.accelerations()
                                - react.accelerations())))


def full_score_options(options, predictions, ego_route, graph, last_kind=None,
                       idm_params=IdmParams(), params=ArbiterParams()):
    """Every option's (total, courtesy, terms) with every term evaluated, as
    `score_options` did before it stopped at a veto."""
    stop_ref = next((o.reference for o in options if o.kind.name == STOP),
                    None)
    out = []
    with mock.patch.object(arbiter, "_follower_disturbance",
                           full_follower_disturbance):
        for opt in options:
            c_p = progress_cost(opt.reference, stop_ref)
            if stop_ref is not None and opt.kind.name != STOP and c_p >= 0.0:
                continue
            same = opt.kind == last_kind
            c_c = 0.0
            terms = {}
            for vid in sorted(predictions):
                for k, hyp in enumerate(predictions[vid]):
                    if hyp.route_id == ego_route.id:
                        continue
                    zone = graph.zone_between(ego_route.id, hyp.route_id)
                    if zone is None:
                        continue
                    if opt.kind.name == STOP:
                        term = 0.0
                    elif zone.kind == "merging":
                        term = merge_courtesy(opt, hyp, ego_route, zone, same,
                                              idm_params, params)
                    else:
                        term = crossing_courtesy(opt, hyp, ego_route, zone,
                                                 same, params)
                    terms[(vid, k)] = term
                    c_c += hyp.probability * term
            out.append((params.w_p * c_p + params.w_c * c_c, c_c, terms))
    return out


def _bits(x):
    return struct.pack("<d", x)


def _assert_matches_full(scored, full):
    """Totals and courtesy sums bitwise equal; terms a prefix of the full
    terms that ends at the first infinite one. Returns how many options
    stopped early."""
    assert len(scored) == len(full)
    stopped = 0
    for s, (total, c_c, terms) in zip(scored, full):
        assert _bits(s.total) == _bits(total)
        assert _bits(s.courtesy_cost) == _bits(c_c)
        kept = list(s.terms.items())
        assert kept == list(terms.items())[:len(kept)]
        if len(kept) < len(terms):
            stopped += 1
            assert kept[-1][1] == math.inf
            assert all(math.isfinite(v) for _, v in kept[:-1])
    return stopped


@pytest.mark.parametrize("last", [None, BehaviorKind(FREE),
                                  BehaviorKind(MERGE, "veh1")])
def test_score_options_equals_the_full_loop_on_the_merge_scene(last):
    for ego_s in (RAMP.intersection_start - 60.0, 100.0, 150.0, 200.0):
        for ego_v in (8.0, 14.0, 20.0):
            options, preds = _merge_scene(ego_s=ego_s, ego_v=ego_v)
            _assert_matches_full(
                score_options(options, preds, RAMP, MERGE_GRAPH, last),
                full_score_options(options, preds, RAMP, MERGE_GRAPH, last))


@pytest.mark.parametrize("scene, seed, extra", [
    (MERGE_SCENARIO, 1, 5), (MERGE_SCENARIO, 2, 5),
    (T_JUNCTION_SCENARIO, 0, 15), (T_JUNCTION_SCENARIO, 3, 25)])
def test_score_options_equals_the_full_loop_in_dense_traffic(scene, seed,
                                                             extra):
    sc = add_random_vehicles(load_scenario(scene, seed=seed), extra)
    score = arbiter.score_options
    stopped = []

    def checked(options, predictions, ego_route, graph, last_kind=None,
                idm_params=IdmParams(), params=ArbiterParams()):
        scored = score(options, predictions, ego_route, graph, last_kind,
                       idm_params, params)
        stopped.append(_assert_matches_full(scored, full_score_options(
            options, predictions, ego_route, graph, last_kind, idm_params,
            params)))
        return scored

    with mock.patch.object(arbiter, "score_options", checked):
        run(sc, SimConfig(duration=6.0))
    assert len(stopped) == 30 and sum(stopped) > 0


def test_hypotheses_of_probability_zero_add_nothing():
    options, preds = _merge_scene()
    padded = {vid: hyps + [dataclasses.replace(h, probability=0.0)
                           for h in hyps] for vid, hyps in preds.items()}
    plain = score_options(options, preds, RAMP, MERGE_GRAPH)
    assert any(s.total == math.inf for s in plain)  # 0 * inf would be NaN
    for a, b in zip(plain, score_options(options, padded, RAMP, MERGE_GRAPH)):
        assert _bits(a.total) == _bits(b.total)
        assert a.terms == b.terms


def test_shadowed_reaction_is_zero_without_a_rollout(monkeypatch):
    # veh1 follows veh2 on main; the ego enters ahead of both and keeps
    # the speed limit, so veh2 stays the closer leader of veh1 throughout
    main = MERGE_GRAPH.routes["main"]
    lo_f, lo_e = ZONE_M.start["main"], ZONE_M.start["ramp"]
    others = [VehicleState(vid, main.centerline.point_at(s),
                           main.centerline.heading_at(s), 10.0)
              for vid, s in (("veh1", lo_f - 60.0), ("veh2", lo_f - 40.0))]
    preds = predict(others, MERGE_GRAPH)
    follower = next(h for h in preds["veh1"] if h.route_id == "main")
    assert follower.leader is not None
    option = BehaviorOption(BehaviorKind(MERGE, "veh2"),
                            _constant(lo_e - 10.0, RAMP.speed_limit))
    calls = []
    monkeypatch.setattr(arbiter, "rollout",
                        lambda *a, **k: calls.append(1) or rollout(*a, **k))
    enter = option.reference.first_index_reaching(lo_e)
    disturbance = arbiter._follower_disturbance(option, follower, enter, RAMP,
                                                ZONE_M, IdmParams())
    assert disturbance == 0.0 and calls == []
    assert full_follower_disturbance(option, follower, enter, RAMP, ZONE_M,
                                     IdmParams()) == 0.0
    assert len(calls) == 1  # the full computation did run the reaction
