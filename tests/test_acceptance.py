"""End-to-end acceptance checks for the planning stack.

Each test covers one numbered criterion and prints a single PASS/FAIL line.
"""

import time

import numpy as np

from crossplan import (
    CartesianTrajectory,
    IdmParams,
    LongState,
    LongTrajectory,
    SimConfig,
    SpeedProfile,
    build_virtual_leader,
    collision_check,
    load_scenario,
    predict,
    rollout,
    run,
    solve,
)
from crossplan.idm import VEHICLE_LENGTH, route_profile
from crossplan.optimizer import N_FIXED, assemble_cost

import test_idm
import test_optimizer
from scenes import (
    MERGE_SCENARIO,
    T_JUNCTION_SCENARIO,
    add_random_vehicles,
    merge_graph,
    random_scene,
    t_junction_graph,
)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} ({name}): {status}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_hypothesis_probabilities_normalized():
    graphs = [merge_graph(), t_junction_graph()]
    predict(random_scene(graphs[0], np.random.default_rng(0)),
            graphs[0])  # warm caches
    worst = 0.0
    start = time.perf_counter()
    for seed in range(1000):
        graph = graphs[seed % 2]
        others = random_scene(graph, np.random.default_rng(seed))
        for vid, hyps in predict(others, graph).items():
            worst = max(worst, abs(sum(h.probability for h in hyps) - 1.0))
    elapsed = time.perf_counter() - start
    _report(1, "probability normalization",
            worst <= 1e-9 and elapsed < 5.0,
            f"worst residual {worst:.2e}, {elapsed:.2f} s for 1000 scenes")


def test_criterion_2_car_following_oracle_and_equilibrium():
    rng = np.random.default_rng(123)
    p = IdmParams()
    v, v0, gap, dv = test_idm.random_idm_inputs(rng, 10_000)
    worst = 0.0
    from crossplan import idm_acceleration
    for i in range(len(v)):
        g = None if np.isnan(gap[i]) else float(gap[i])
        got = idm_acceleration(float(v[i]), float(v0[i]), g, float(dv[i]), p)
        want = test_idm.reference_acceleration(float(v[i]), float(v0[i]), g,
                                               float(dv[i]), p)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    drift = 0.0
    for v_eq in (5.0, 10.0, 15.0, 20.0, 25.0):
        gap_eq = test_idm.equilibrium_gap(v_eq, 30.0, p)
        t = np.arange(201) * 0.05
        leader = LongTrajectory(1000.0 + v_eq * t, np.full(201, v_eq), 0.05)
        start = LongState(1000.0 - VEHICLE_LENGTH - gap_eq, v_eq)
        profile = SpeedProfile(0.0, 1e4, np.array([30.0, 30.0]))
        traj = rollout(start, profile, leader=leader, params=p, n=201, dt=0.05)
        drift = max(drift, float(np.max(np.abs(traj.v - v_eq))))
    _report(2, "car-following oracle",
            worst <= 1e-12 and drift <= 1e-3,
            f"max rel err {worst:.2e}, max equilibrium drift {drift:.2e} m/s")


def test_criterion_3_virtual_leader_boundary_condition():
    graph = merge_graph()
    zone = graph.zone_between("ramp", "main")
    ramp, main = graph.routes["ramp"], graph.routes["main"]
    rng = np.random.default_rng(7)
    built, worst_s, worst_v = 0, 0.0, 0.0
    for _ in range(200):
        s_rl = zone.start["main"] - float(rng.uniform(20.0, 160.0))
        v_rl = float(rng.uniform(6.0, 24.0))
        rl_traj = rollout(LongState(s_rl, v_rl), route_profile(main))
        ego = LongState(zone.start["ramp"] - float(rng.uniform(20.0, 140.0)),
                        float(rng.uniform(6.0, 20.0)))
        vl = build_virtual_leader(rl_traj, "main", zone, ramp, ego)
        if vl is None:
            continue
        built += 1
        k = vl.merge_index
        gap = abs(vl.trajectory.s[k] - zone.start["ramp"])
        worst_s = max(worst_s, gap - vl.trajectory.v[k] * vl.trajectory.dt)
        worst_v = max(worst_v, abs(vl.trajectory.v[k] - rl_traj.v[k]))
    _report(3, "virtual leader boundary",
            built >= 100 and worst_s <= 0.0 and worst_v <= 0.1,
            f"{built}/200 constructible, position slack {worst_s:.2e} m, "
            f"speed gap {worst_v:.2e} m/s")


def test_criterion_4_optimizer_correctness():
    rng = np.random.default_rng(41)
    dt, n, h = 0.05, 60, 1e-6
    worst_grad = 0.0
    for _ in range(100):
        ref = test_optimizer._smooth_reference(rng)
        x = ref + rng.normal(0.0, 0.3, ref.shape)
        weights = test_optimizer._random_weights(rng)
        _, grad = assemble_cost(x, ref, weights, dt)
        num = np.empty_like(grad)
        for i in range(n):
            for dim in range(2):
                xp = x.copy()
                xp[i, dim] += h
                xm = x.copy()
                xm[i, dim] -= h
                cp, _ = assemble_cost(xp, ref, weights, dt)
                cm, _ = assemble_cost(xm, ref, weights, dt)
                num[i, dim] = (cp - cm) / (2.0 * h)
        rel = (np.linalg.norm(grad - num)
               / max(1.0, float(np.linalg.norm(num))))
        worst_grad = max(worst_grad, rel)

    worst_ls = 0.0
    for _ in range(5):
        ref = test_optimizer._smooth_reference(rng, speed=rng.uniform(3, 12))
        prefix = ref[:N_FIXED].copy()
        weights = test_optimizer._random_weights(rng)
        result = solve(CartesianTrajectory(ref, dt), prefix, weights)
        want = test_optimizer._quadratic_minimizer(ref, prefix, weights, dt)
        worst_ls = max(worst_ls,
                       float(np.max(np.abs(result.trajectory.positions - want))))

    worst_acc, converged = 0.0, 0
    for speed in np.linspace(7.0, 18.0, 12):
        ref = test_optimizer._corner_reference(float(speed))
        result = solve(CartesianTrajectory(ref, dt), ref[:N_FIXED].copy())
        if result.converged:
            converged += 1
            x = result.trajectory.positions
            a = (x[N_FIXED + 1:] - 2.0 * x[N_FIXED:-1]
                 + x[N_FIXED - 1:-2]) / dt ** 2
            worst_acc = max(worst_acc,
                            float(np.max(np.hypot(a[:, 0], a[:, 1]))))
    _report(4, "optimizer correctness",
            worst_grad < 1e-5 and worst_ls < 1e-8
            and converged > 0 and worst_acc <= 5.0 + 1e-4,
            f"grad rel err {worst_grad:.2e}, least-squares gap {worst_ls:.2e}, "
            f"{converged}/12 corner solves converged, max |a| {worst_acc:.4f}")


N_SEEDS = 20
MIN_CONFORMING = 18


def test_criterion_5_merge_scenario_reproduction():
    start = time.perf_counter()
    ok_vl, ok_ablated = 0, 0
    for seed in range(N_SEEDS):
        sc = load_scenario(MERGE_SCENARIO, seed=seed)
        trace = run(sc, SimConfig())
        min_v = min(r.ego_v for r in trace)
        if min_v > 12.0 and not collision_check(trace, sc):
            ok_vl += 1
        sc_abl = load_scenario(MERGE_SCENARIO, seed=seed,
                               overrides={"use_virtual_leader": "false"})
        if min(r.ego_v for r in run(sc_abl, SimConfig())) < 6.0:
            ok_ablated += 1
    elapsed = time.perf_counter() - start
    _report(5, "merge scenario",
            ok_vl >= MIN_CONFORMING and ok_ablated >= MIN_CONFORMING
            and elapsed < 60.0,
            f"fluent merge {ok_vl}/{N_SEEDS}, ablated slowdown "
            f"{ok_ablated}/{N_SEEDS}, {elapsed:.1f} s")


def _merge_point_crossing_order(sc, trace):
    """Ego merge-point crossing time minus vehicle 3's, or None."""
    zone = sc.graph.zone_between("side", "north")
    s_ego = np.array([r.ego_s for r in trace])
    t = np.array([r.t for r in trace])
    if s_ego[-1] < zone.start["side"]:
        return None
    t_ego = float(np.interp(zone.start["side"], s_ego, t))
    s3 = np.array([r.vehicles["veh3"][0] for r in trace])
    idx = np.nonzero(s3 >= zone.start["north"])[0]
    if len(idx) == 0:
        return None
    return t_ego - float(t[idx[0]])


def test_criterion_6_t_junction_arbitration():
    ahead, behind = 0, 0
    for seed in range(N_SEEDS):
        sc = load_scenario(T_JUNCTION_SCENARIO, seed=seed)
        rel = _merge_point_crossing_order(sc, run(sc, SimConfig()))
        if rel is not None and rel < 0.0:
            ahead += 1
        sc4 = load_scenario(T_JUNCTION_SCENARIO, seed=seed,
                            overrides={"w_c": "4"})
        rel = _merge_point_crossing_order(sc4, run(sc4, SimConfig()))
        if rel is not None and rel > 0.0:
            behind += 1
    _report(6, "cooperation weight arbitration",
            ahead >= MIN_CONFORMING and behind >= MIN_CONFORMING,
            f"w_c=1 merges ahead of vehicle 3 {ahead}/{N_SEEDS}, "
            f"w_c=4 behind {behind}/{N_SEEDS}")


def test_criterion_7_planning_cycle_runtime():
    sc = add_random_vehicles(load_scenario(MERGE_SCENARIO), 10)
    assert len(sc.vehicles) == 12  # plus the ego: 13 vehicles in the scene
    trace = run(sc, SimConfig())
    ms = [r.plan_ms for r in trace if r.plan_ms > 0.0]
    ms = ms[1:]  # first cycle fills the speed-profile caches
    mean, worst = float(np.mean(ms)), float(np.max(ms))
    collisions = collision_check(trace, sc)
    _report(7, "planning cycle runtime",
            mean < 50.0 and worst < 150.0 and not collisions,
            f"mean {mean:.1f} ms, max {worst:.1f} ms over {len(ms)} cycles, "
            f"{len(collisions)} collision ticks")


def test_criterion_8_property_suites():
    # the detailed property tests live in the per-module suites; this is a
    # one-instance sweep across all of them
    from test_geometry import _gentle_polyline
    line = _gentle_polyline(np.random.default_rng(2))
    s, d = 0.4 * line.length, 0.8
    s2, d2, _ = line.project(line.point_at(s, d))
    round_trip = abs(s2 - s) < 0.08 and abs(d2 - d) < 0.08

    from scenes import circle_route
    curv = abs(circle_route("c", 30.0).centerline.curvature_at(40.0) - 1 / 30.0)

    from test_arbiter import _merge_scene
    from crossplan import score_options, select
    from crossplan.arbiter import merge_courtesy
    from crossplan.behavior import STOP
    graph = merge_graph()
    options, preds = _merge_scene()
    scored = score_options(options, preds, graph.routes["ramp"], graph)
    stop = next(x for x in scored if x.option.kind.name == STOP)
    stop_zero = stop.total == 0.0 and all(v == 0.0 for v in stop.terms.values())

    from test_arbiter import _merge_pair
    hysteresis = all(
        merge_courtesy(o, f, graph.routes["ramp"],
                       graph.zone_between("ramp", "main"), True)
        <= merge_courtesy(o, f, graph.routes["ramp"],
                          graph.zone_between("ramp", "main"), False) + 1e-12
        for o, f in (_merge_pair(x) for x in (-2.0, 1.5, 3.0, 6.0)))

    base = select(scored).kind
    renorm = all(
        select(score_options(options, preds, graph.routes["ramp"],
                             graph)).kind == base
        for _ in range(3))

    from test_simloop import _tiny, _key
    trace_a = run(_tiny(duration=2.0), SimConfig())
    trace_b = run(_tiny(duration=2.0), SimConfig())
    deterministic = _key(trace_a) == _key(trace_b)
    xy = np.array([[r.ego_x, r.ego_y] for r in trace_a])
    acc = (xy[2:] - 2.0 * xy[1:-1] + xy[:-2]) / 0.05 ** 2
    continuous = float(np.max(np.hypot(acc[:, 0], acc[:, 1]))) <= 5.5

    checks = {"projection round-trip": round_trip,
              "curvature convergence": curv < 1e-6,
              "stop-option zero costs": stop_zero,
              "hysteresis retention": hysteresis,
              "renormalization invariance": renorm,
              "replanning prefix continuity": continuous,
              "trace determinism": deterministic}
    failed = [k for k, v in checks.items() if not v]
    _report(8, "property suites", not failed,
            "all properties hold" if not failed else f"failed: {failed}")
