"""Route intention belief, maneuver probabilities, and hypothesis rollouts."""

import math
import sys

import numpy as np
import pytest

from crossplan import (
    LongTrajectory,
    Polyline,
    PredictorParams,
    Route,
    RouteGraph,
    VehicleState,
    drive_probability,
    generate_options,
    predict,
    prediction,
    rollout,
    route_belief,
)
from crossplan.errors import NoCandidateRoute
from crossplan.geometry import ConflictZone, project_to_route
from crossplan.idm import VEHICLE_LENGTH
from crossplan.prediction import (MERGE_ZONE_EXTENT, candidate_routes,
                                  closest_leader, occupancy_window)

from scenes import (line_route, merge_graph, random_scene, reaching_at,
                    t_junction_graph)

MERGE = merge_graph()
T_JUNCTION = t_junction_graph()


def test_route_belief_matches_gaussian_oracle():
    params = PredictorParams()
    rng = np.random.default_rng(5)
    routes = list(T_JUNCTION.routes.values())
    for _ in range(50):
        route = routes[rng.integers(len(routes))]
        s = float(rng.uniform(10.0, route.length - 10.0))
        d = float(rng.uniform(-1.0, 1.0))
        position = route.centerline.point_at(s, d)
        heading = route.centerline.heading_at(s) + float(rng.uniform(-0.3, 0.3))
        cands = [r for r in routes
                 if _distance_to(r, position) < 10.0]
        if not cands:
            continue
        poses = {r.id: project_to_route(position, heading, r) for r in cands}
        got = route_belief(poses, params)
        logs = {}
        for r in cands:
            pose = project_to_route(position, heading, r)
            logs[r.id] = (-0.5 * (pose.phi / params.sigma_phi) ** 2
                          - 0.5 * (pose.d / params.sigma_d) ** 2)
        peak = max(logs.values())
        w = {rid: math.exp(v - peak) for rid, v in logs.items()}
        total = sum(w.values())
        assert set(got) == set(w)
        for rid in w:
            assert got[rid] == pytest.approx(w[rid] / total, abs=1e-12)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


def _distance_to(route, position):
    _, _, dist = route.centerline.project(position)
    return dist


def test_route_belief_requires_candidates():
    with pytest.raises(NoCandidateRoute):
        route_belief({})


def test_candidate_routes_by_corridor():
    route = T_JUNCTION.routes["north"]
    on = VehicleState("a", route.centerline.point_at(100.0), math.pi / 2, 5.0)
    far = VehicleState("b", np.array([500.0, 500.0]), 0.0, 5.0)
    cands = candidate_routes(on, T_JUNCTION)
    assert "north" in cands
    assert list(cands) == sorted(cands)
    for rid, pose in cands.items():
        assert pose == project_to_route(on.position, on.heading,
                                        T_JUNCTION.routes[rid])
    assert candidate_routes(far, T_JUNCTION) == {}


@pytest.mark.parametrize("graph", [MERGE, T_JUNCTION])
def test_hypothesis_probabilities_sum_to_one(graph):
    for seed in range(30):
        others = random_scene(graph, np.random.default_rng(seed))
        hyps = predict(others, graph)
        for vid, hs in hyps.items():
            assert hs, vid
            assert sum(h.probability for h in hs) == pytest.approx(1.0,
                                                                   abs=1e-9)
            for h in hs:
                assert 0.0 <= h.probability <= 1.0
                assert h.maneuver in ("drive", "stop")
        # and on each route to the vehicle's belief in that route
        for veh in others:
            for rid, belief in route_belief(
                    candidate_routes(veh, graph)).items():
                assert sum(h.probability for h in hyps[veh.id]
                           if h.route_id == rid) == pytest.approx(
                               belief, rel=1e-12, abs=0.0)


def test_vehicle_outside_map_is_skipped():
    ghost = VehicleState("ghost", np.array([900.0, 900.0]), 0.0, 5.0)
    assert "ghost" not in predict([ghost], T_JUNCTION)


def _constant_speed(s0, v, n=201, dt=0.05):
    t = np.arange(n) * dt
    return LongTrajectory(s0 + v * t, np.full(n, v), dt)


def test_drive_probability_returns_exact_levels():
    params = PredictorParams()
    side = T_JUNCTION.routes["side"]
    north = T_JUNCTION.routes["north"]
    zone = T_JUNCTION.zone_between("side", "north")
    s_side = zone.start["side"]
    s_north = zone.start["north"]

    # priority route: always lambda3 regardless of traffic
    p = drive_probability(north, _constant_speed(s_north - 40.0, 8.0), [],
                          T_JUNCTION, params)
    assert p == params.lambda3

    # yielding route, empty intersection: lambda2
    ego_traj = _constant_speed(s_side - 40.0, 8.0)
    assert drive_probability(side, ego_traj, [], T_JUNCTION,
                             params) == params.lambda2

    # yielding route, prioritized vehicle reaching the zone at the same time
    conflicting = [("north", _constant_speed(s_north - 40.0, 8.0))]
    assert drive_probability(side, ego_traj, conflicting, T_JUNCTION,
                             params) == params.lambda1

    # prioritized vehicle long gone before arrival: back to lambda2
    passed = [("north", _constant_speed(s_north + 100.0, 8.0))]
    assert drive_probability(side, ego_traj, passed, T_JUNCTION,
                             params) == params.lambda2


@pytest.mark.parametrize("t0", [0.05, 4.8])
@pytest.mark.parametrize("arrive, enter", [(4, 64), (15, 75)])
def test_drive_probability_does_not_depend_on_the_clock(t0, arrive, enter):
    # the prioritized vehicle enters the zone 60 samples (dt_inter = 3 s)
    # after the yielder arrives, on the edge of the window where rounding
    # decides; summed onto a clock, the answer changed with the clock
    side = T_JUNCTION.routes["side"]
    zone = T_JUNCTION.zone_between("side", "north")
    half = 0.5 * VEHICLE_LENGTH

    def p_drive(clock):
        return drive_probability(
            side, reaching_at(zone.start["side"] - half, arrive, clock),
            [("north", reaching_at(zone.start["north"] - half, enter, clock))],
            T_JUNCTION)

    assert p_drive(t0) == p_drive(0.0)


def test_occupancy_window_spans_entry_to_clearing():
    dt = 0.1
    half = 0.5 * VEHICLE_LENGTH

    def at_10_m_per_s(n):  # s = k metres at sample k
        return LongTrajectory(np.arange(n, dtype=float), np.full(n, 10.0), dt)

    crossing = ConflictZone("crossing", start={"a": 50.0}, end={"a": 60.0})
    merging = ConflictZone("merging", start={"a": 50.0})
    enter = math.ceil(50.0 - half) * dt
    # still inside the zone at the horizon: it never clears
    assert occupancy_window(at_10_m_per_s(61), crossing, "a") == (enter,
                                                                  math.inf)
    # a crossing zone is cleared past its end, a merging one past
    # MERGE_ZONE_EXTENT from its start
    long = at_10_m_per_s(201)
    assert occupancy_window(long, crossing, "a") == (
        enter, math.ceil(60.0 + half) * dt)
    assert occupancy_window(long, merging, "a") == (
        enter, math.ceil(50.0 + MERGE_ZONE_EXTENT + half) * dt)
    # never reaches the zone
    assert occupancy_window(at_10_m_per_s(40), crossing, "a") is None


def test_stop_hypothesis_gated_by_intersection_and_traffic():
    ramp = MERGE.routes["ramp"]
    main = MERGE.routes["main"]
    zone = MERGE.zone_between("ramp", "main")
    s_before = ramp.intersection_start - 60.0
    approaching = VehicleState(
        "yielder", ramp.centerline.point_at(s_before),
        ramp.centerline.heading_at(s_before), 14.0)

    # empty intersection: p_drive = lambda2 = 1, so no stop hypothesis
    maneuvers = {h.maneuver for h in predict([approaching], MERGE)["yielder"]}
    assert maneuvers == {"drive"}

    # a prioritized vehicle in conflict makes stopping plausible
    s_main = zone.start["main"] - 14.0 * (zone.start["ramp"] - s_before) / 14.0
    rival = VehicleState("rival", main.centerline.point_at(s_main),
                         main.centerline.heading_at(s_main), 14.0)
    hyps = predict([approaching, rival], MERGE)["yielder"]
    maneuvers = {h.maneuver for h in hyps}
    assert maneuvers == {"drive", "stop"}
    stop = next(h for h in hyps if h.maneuver == "stop")
    assert stop.trajectory.v[-1] < 0.5
    assert stop.trajectory.s[-1] <= ramp.intersection_start

    # past the intersection entry there is nothing left to stop for
    s_past = ramp.intersection_start + 10.0
    committed = VehicleState("committed", ramp.centerline.point_at(s_past),
                             ramp.centerline.heading_at(s_past), 14.0)
    assert {h.maneuver
            for h in predict([committed, rival], MERGE)["committed"]} == {
                "drive"}


def test_predict_assigns_leader_on_shared_route():
    main = MERGE.routes["main"]
    back = VehicleState("back", main.centerline.point_at(100.0),
                        main.centerline.heading_at(100.0), 18.0)
    front = VehicleState("front", main.centerline.point_at(140.0),
                         main.centerline.heading_at(140.0), 12.0)
    hyps = predict([back, front], MERGE)
    follow = max(hyps["back"], key=lambda h: h.probability)
    assert follow.leader is not None
    # the follower's rollout never overlaps its leader
    gap = follow.leader.s - follow.trajectory.s
    assert np.all(gap > 0.0)


def test_predictor_params_validation():
    with pytest.raises(ValueError):
        PredictorParams(sigma_d=0.0)
    with pytest.raises(ValueError):
        PredictorParams(delta_r=1.5)
    with pytest.raises(ValueError):
        PredictorParams(lambda1=1.2)
    with pytest.raises(ValueError):
        PredictorParams(lambda3=0.0)  # a lone hypothesis could get P = 0


@pytest.mark.parametrize("graph", [MERGE, T_JUNCTION])
def test_every_hypothesis_is_the_rollout_of_its_context(graph):
    # the `Hypothesis` invariant the arbiter's shadowed-reaction shortcut
    # relies on; 12 vehicles per scene so that queues occur
    for seed in range(30):
        others = random_scene(graph, np.random.default_rng(seed), 12)
        for hyps in predict(others, graph).values():
            for h in hyps:
                fresh = rollout(h.start, h.profile, leader=h.leader,
                                stop_at=h.stop_at)
                assert np.array_equal(h.trajectory.s, fresh.s)
                assert np.array_equal(h.trajectory.v, fresh.v)
                assert h.trajectory.dt == fresh.dt


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_queue_rolls_each_vehicle_out_once_behind_its_leaders_drive(
        monkeypatch, n):
    # a queue on main, back to front: each vehicle is rolled out once, and
    # follows the drive hypothesis of the vehicle ahead, not a leaderless
    # rollout of it that drives through that vehicle's own leader
    main = MERGE.routes["main"]
    queue = [VehicleState(f"q{k}", main.centerline.point_at(100.0 + 20.0 * k),
                          main.centerline.heading_at(100.0 + 20.0 * k),
                          18.0 - 3.0 * k) for k in range(n)]
    calls = []
    monkeypatch.setattr(prediction, "rollout",
                        lambda *a, **k: calls.append(1) or rollout(*a, **k))
    hyps = predict(queue, MERGE)
    assert len(calls) == n
    drives = [hyps[veh.id] for veh in queue]
    assert all([(h.route_id, h.maneuver) for h in hs] == [("main", "drive")]
               for hs in drives)
    for (follower,), (leader,) in zip(drives, drives[1:]):
        assert follower.leader is leader.trajectory
    assert drives[-1][0].leader is None
    for (h,) in drives:
        fresh = rollout(h.start, h.profile, leader=h.leader)
        assert np.array_equal(h.trajectory.s, fresh.s)
        assert np.array_equal(h.trajectory.v, fresh.v)


def test_a_queue_longer_than_the_recursion_limit_is_predicted():
    # the chain of leaders is built front to back without recursing once
    # per vehicle, so its length is not bounded by the interpreter's stack
    n = sys.getrecursionlimit() + 100
    road = RouteGraph([line_route("road", (0.0, 0.0), (10.0 * n + 100.0, 0.0),
                                  n=n + 11)])
    queue = [VehicleState(f"v{k:05d}", np.array([10.0 * k + 5.0, 0.0]), 0.0,
                          10.0) for k in range(n)]
    hyps = predict(queue, road)
    drives = [hyps[veh.id][0] for veh in queue]
    for follower, leader in zip(drives, drives[1:]):
        assert follower.leader is leader.trajectory
    assert drives[-1].leader is None


def test_each_follower_follows_its_leaders_drive_on_its_own_route():
    # route a laps z's lane twice: on z "B" is ahead of "A", and on a "A",
    # on the second lap, is ahead of "B". Each leads the other on one route,
    # but a leader is followed on the follower's route, so no chain closes
    z = line_route("z", (0.0, 0.0), (100.0, 0.0))
    lap1 = [[x, -0.05] for x in np.linspace(0.0, 100.0, 21)]
    loop = [[130.0, -30.0], [50.0, -60.0], [-30.0, -30.0]]
    lap2 = [[x, 0.05] for x in np.linspace(0.0, 100.0, 21)]
    a = Route(id="a", centerline=Polyline(lap1 + loop + lap2),
              speed_limit=15.0, intersection_start=None)
    graph = RouteGraph([z, a])
    others = [VehicleState("A", np.array([20.0, 0.02]), 0.0, 10.0),
              VehicleState("B", np.array([30.0, -0.05]), 0.0, 10.0)]
    hyps = predict(others, graph)
    on = {(vid, h.route_id): h for vid, hs in hyps.items() for h in hs}
    assert set(on) == {("A", "z"), ("A", "a"), ("B", "z"), ("B", "a")}
    assert on["A", "z"].leader is on["B", "z"].trajectory
    assert on["B", "a"].leader is on["A", "a"].trajectory
    assert on["B", "z"].leader is None and on["A", "a"].leader is None
    permuted = predict(others[::-1], graph)
    assert permuted.keys() == hyps.keys()
    for vid, hs in hyps.items():
        assert [(h.route_id, h.maneuver, h.probability) for h in hs] == [
            (h.route_id, h.maneuver, h.probability) for h in permuted[vid]]
        for h, g in zip(hs, permuted[vid]):
            assert np.array_equal(h.trajectory.s, g.trajectory.s)
            assert np.array_equal(h.trajectory.v, g.trajectory.v)


def test_a_follower_in_a_shared_lane_follows_its_leaders_drive_there():
    # past the junction `side` runs in `north`'s lane, so a vehicle there
    # believes both routes equally; a follower on `north` follows that
    # vehicle's `north` drive, not its drive toward `side`'s faster limit
    north = T_JUNCTION.routes["north"]
    s_join = T_JUNCTION.zone_between("side", "north").start["north"]
    lead = VehicleState("lead", north.centerline.point_at(s_join + 30.0),
                        north.centerline.heading_at(s_join + 30.0), 8.0)
    back = VehicleState("back", north.centerline.point_at(s_join - 50.0),
                        north.centerline.heading_at(s_join - 50.0), 8.0)
    assert route_belief(candidate_routes(lead, T_JUNCTION)) == {
        "north": 0.5, "side": 0.5}
    hyps = predict([lead, back], T_JUNCTION)
    followed = next(h for h in hyps["lead"] if h.route_id == "north")
    follower = next(h for h in hyps["back"] if h.route_id == "north")
    assert follower.leader.v.max() <= north.speed_limit
    assert follower.leader is followed.trajectory


@pytest.mark.parametrize("graph", [MERGE, T_JUNCTION])
def test_the_free_reference_is_the_drive_of_a_vehicle_in_the_egos_place(
        graph):
    # one leader rule for every follower: the ego's follow-or-free option is
    # bit for bit the drive hypothesis of a predicted vehicle at its state
    compared = 0
    for seed in range(30):
        others = random_scene(graph, np.random.default_rng(seed), 12)
        preds = predict(others, graph)
        for vid, hyps in preds.items():
            rest = {o: hs for o, hs in preds.items() if o != vid}
            for h in hyps:
                if h.maneuver != "drive":
                    continue
                free = generate_options(h.start, graph.routes[h.route_id],
                                        rest, graph, None,
                                        include_merge=False)[0]
                assert free.kind.name == "follow_or_free"
                assert np.array_equal(free.reference.s, h.trajectory.s)
                assert np.array_equal(free.reference.v, h.trajectory.v)
                compared += h.leader is not None
    assert compared > 100  # most of the compared drives follow a leader


def test_closest_leader_is_the_nearest_believer_strictly_ahead():
    on_route = {"far": (0.9, 80.0), "near": (0.9, 50.0), "here": (0.9, 20.0),
                "behind": (0.9, 10.0), "doubter": (0.1, 30.0)}
    assert closest_leader(20.0, on_route, 0.1) == "near"
    # a vehicle level with `s` is not ahead of it, so none leads itself
    assert closest_leader(50.0, on_route, 0.1) == "far"
    # a belief equal to delta_r is not enough; one above it is
    assert closest_leader(25.0, on_route, 0.1) == "near"
    assert closest_leader(25.0, on_route, 0.09) == "doubter"
    assert closest_leader(80.0, on_route, 0.1) is None
    assert closest_leader(0.0, {}, 0.1) is None
    # the smallest id wins a tie, whatever the order of the mapping
    tie = {"b": (0.5, 40.0), "a": (0.5, 40.0), "c": (0.5, 60.0)}
    assert closest_leader(0.0, tie, 0.1) == "a"
    assert closest_leader(0.0, dict(reversed(tie.items())), 0.1) == "a"


def test_a_tie_for_the_lead_goes_to_the_smallest_id():
    # two vehicles level ahead of a follower, side by side in its lane, at
    # different speeds: the follower follows "L1" in either listing order
    road = RouteGraph([line_route("road", (0.0, 0.0), (300.0, 0.0))])
    follower = VehicleState("F", np.array([10.0, 0.0]), 0.0, 8.0)
    slow = VehicleState("L1", np.array([40.0, 0.5]), 0.0, 2.0)
    fast = VehicleState("L2", np.array([40.0, -0.5]), 0.0, 12.0)
    drives = []
    for others in ([follower, slow, fast], [follower, fast, slow]):
        hyps = predict(others, road)
        assert hyps["L1"][0].start.s == hyps["L2"][0].start.s
        assert hyps["F"][0].leader is hyps["L1"][0].trajectory
        drives.append(hyps["F"][0].trajectory)
    assert np.array_equal(drives[0].s, drives[1].s)
    assert np.array_equal(drives[0].v, drives[1].v)


def test_a_shared_lane_vehicle_past_both_stop_lines_keeps_its_belief():
    # at north s = 282, past the junction, `side` runs in `north`'s lane:
    # neither route has a stop line ahead, so each route's drive hypothesis
    # carries that route's whole belief of 0.5
    s = T_JUNCTION.zone_between("side", "north").start["north"] + 30.0
    north = T_JUNCTION.routes["north"].centerline
    veh = VehicleState("v", north.point_at(s), north.heading_at(s), 8.0)
    hyps = predict([veh], T_JUNCTION)["v"]
    assert [(h.route_id, h.maneuver) for h in hyps] == [
        ("north", "drive"), ("side", "drive")]
    assert [h.probability for h in hyps] == [0.5, 0.5]


def test_a_barely_relevant_leader_leads_the_ego_as_it_leads_prediction():
    # `a` has no stop line, `b` one far ahead; a vehicle offset toward `b`
    # believes `a` just above delta_r. Its hypotheses on `a` sum to that
    # belief, so the ego on `a` follows it as a predicted vehicle in the
    # ego's place does
    a = line_route("a", (0.0, 0.0), (300.0, 0.0))
    b = line_route("b", (0.0, 0.5), (300.0, 0.5), intersection_start=250.0)
    graph = RouteGraph([a, b])
    y = 0.25 - math.log(0.11 / 0.89) / 50.0  # belief 0.11 in `a`
    lead = VehicleState("lead", np.array([60.0, y]), 0.0, 2.0)
    twin = VehicleState("twin", np.array([30.0, 0.0]), 0.0, 10.0)
    belief = route_belief(candidate_routes(lead, graph))["a"]
    assert PredictorParams().delta_r < belief == pytest.approx(0.11)
    preds = predict([lead, twin], graph)
    drive = next(h for h in preds["twin"] if h.route_id == "a")
    assert drive.leader is next(h.trajectory for h in preds["lead"]
                                if h.route_id == "a")
    free = generate_options(drive.start, a, {"lead": preds["lead"]}, graph,
                            None, include_merge=False)[0]
    assert np.array_equal(free.reference.s, drive.trajectory.s)
    assert np.array_equal(free.reference.v, drive.trajectory.v)
