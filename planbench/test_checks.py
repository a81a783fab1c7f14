"""Tests of the benchmark's own checks: each must pass on the planner's real
output and fail on a corrupted copy of it.

    python3 -m pytest planbench -q
"""

from __future__ import annotations

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repo

repo.make_importable()

import checks  # noqa: E402
from crossplan import (CartesianTrajectory, IdmParams, LongState,  # noqa: E402
                       LongTrajectory, OptimizerWeights, SimConfig,
                       SpeedProfile, load_scenario, rollout, run, solve)
from crossplan.optimizer import assemble_cost  # noqa: E402
from tracer import Tracer  # noqa: E402

DT = 0.05


def _rollout_call(stop_at=80.0):
    t = np.arange(201) * DT
    leader = LongTrajectory(40.0 + 6.0 * t, np.full(201, 6.0), DT)
    call = dict(start=LongState(10.0, 12.0),
                profile=SpeedProfile(0.0, 0.5, np.linspace(15.0, 9.0, 400)),
                leader=leader, stop_at=stop_at, params=IdmParams(), n=201,
                dt=DT, t0=0.0, vehicle_length=5.0)
    return call, rollout(**call)


def _with_v(traj, v):
    return LongTrajectory(traj.s, v, traj.dt, traj.t0)


@pytest.mark.parametrize("stop_at", [None, 80.0, 30.0])
def test_rollout_check_accepts_the_planner(stop_at):
    call, traj = _rollout_call(stop_at)
    assert checks.check_rollout(call, traj) == []


def test_rollout_check_accepts_free_road():
    call, _ = _rollout_call(None)
    call["leader"] = None
    assert checks.check_rollout(call, rollout(**call)) == []


def test_rollout_check_rejects_a_perturbed_sample():
    call, traj = _rollout_call()
    v = traj.v.copy()
    v[57] += 1e-4
    problems = checks.check_rollout(call, _with_v(traj, v))
    assert any("reference integrator" in p for p in problems)


def test_rollout_check_rejects_accelerations_outside_the_band():
    call, traj = _rollout_call()
    v = traj.v.copy()
    v[100:] += 0.5  # one step of +10 m/s^2
    problems = checks.check_rollout(call, _with_v(traj, v))
    assert any("acceleration" in p for p in problems)


def test_rollout_check_rejects_negative_speed():
    call, traj = _rollout_call()
    v = traj.v.copy()
    v[-1] = -0.01
    problems = checks.check_rollout(call, _with_v(traj, v))
    assert any("negative speed" in p for p in problems)


def _reference(offset=(300.0, -120.0), speed=9.0, curve=0.0):
    t = np.arange(60) * DT
    xy = np.stack([speed * t, curve * t**3], axis=1) + np.asarray(offset)
    return CartesianTrajectory(xy, dt=DT)


def _solve(weights=OptimizerWeights(), **kw):
    ref = _reference(**kw)
    prefix = ref.positions[:4].copy()
    prefix[3, 1] += 0.02  # replanning: the executed prefix is off the reference
    return ref, prefix, solve(ref, prefix, weights)


def _replace_positions(result, x):
    return dataclasses.replace(
        result, trajectory=CartesianTrajectory(x, dt=DT))


def test_solve_check_accepts_the_closed_form():
    ref, prefix, res = _solve()
    assert res.iterations == 1 and res.converged
    assert checks.check_solve(ref, prefix, OptimizerWeights(), res, True) == []


def test_solve_check_rejects_a_moved_prefix_point():
    ref, prefix, res = _solve()
    x = res.trajectory.positions.copy()
    x[2, 0] = np.nextafter(x[2, 0], np.inf)
    problems = checks.check_solve(ref, prefix, OptimizerWeights(),
                                  _replace_positions(res, x), True)
    assert any("prefix" in p for p in problems)


def test_solve_check_rejects_a_point_off_the_optimum():
    ref, prefix, res = _solve()
    x = res.trajectory.positions.copy()
    x[30, 1] += 1e-6
    problems = checks.check_solve(ref, prefix, OptimizerWeights(),
                                  _replace_positions(res, x), True)
    assert any("not stationary" in p for p in problems)


def test_solve_check_rejects_a_cost_above_the_reference():
    ref, prefix, res = _solve()
    x = res.trajectory.positions.copy()
    x[4:] += np.random.default_rng(0).normal(0.0, 0.05, x[4:].shape)
    problems = checks.check_solve(ref, prefix, OptimizerWeights(),
                                  _replace_positions(res, x), False)
    assert any("above the reference" in p for p in problems)


def test_solve_check_rejects_an_infeasible_converged_result():
    # lateral acceleration 6 t m/s^2, smoothed without a binding limit
    ref, prefix, res = _solve(OptimizerWeights(a_max=100.0), curve=1.0)
    weights = OptimizerWeights(a_max=3.0)
    assert float(np.max(checks.accel_norms(res.trajectory.positions, DT))) > 3.0
    flagged = dataclasses.replace(res, converged=True)
    problems = checks.check_solve(ref, prefix, weights, flagged, True)
    assert any("a_max" in p for p in problems)


def test_independent_cost_matches_the_planner_near_the_origin():
    # far from the origin the planner's quadratic form loses digits to
    # cancellation; near it both must agree
    ref = _reference(offset=(0.0, 0.0), curve=0.2).positions
    x = ref + np.random.default_rng(3).normal(0.0, 0.01, ref.shape)
    w = OptimizerWeights()
    want, want_grad = assemble_cost(x, ref, w, DT)
    got, grad, _ = checks.comfort_cost(x, ref, w, DT)
    assert got == pytest.approx(want, rel=1e-7)
    np.testing.assert_allclose(grad[4:], want_grad[4:], rtol=1e-6,
                               atol=1e-6 * np.abs(want_grad).max())


@pytest.fixture(scope="module")
def short_merge():
    sc = load_scenario(repo.SCENARIOS / "merge_rural.json", seed=3)
    cfg = SimConfig(duration=2.0)
    return sc, run(sc, cfg), run(sc, cfg)


def test_repeat_check_accepts_identical_repeats(short_merge):
    _, first, second = short_merge
    ticks = checks.replan_ticks(first)
    keys = [checks.record_key(r) for r in first]
    assert len(ticks) == 10
    assert checks.cycle_mismatches(keys, ticks, second) == set()


def test_repeat_check_rejects_a_shuffled_repeat(short_merge):
    _, first, second = short_merge
    ticks = checks.replan_ticks(first)
    keys = [checks.record_key(r) for r in first]
    shuffled = list(second)
    shuffled[21], shuffled[22] = shuffled[22], shuffled[21]
    assert checks.cycle_mismatches(keys, ticks, shuffled) == {5}


def test_repeat_check_rejects_a_moved_vehicle(short_merge):
    _, first, second = short_merge
    ticks = checks.replan_ticks(first)
    keys = [checks.record_key(r) for r in first]
    changed = list(second)
    rec = changed[38]
    vehicles = dict(rec.vehicles)
    s, v = vehicles["veh1"]
    vehicles["veh1"] = (s + 1e-9, v)
    changed[38] = dataclasses.replace(rec, vehicles=vehicles)
    assert checks.cycle_mismatches(keys, ticks, changed) == {9}


def test_repeat_check_ignores_plan_time(short_merge):
    _, first, second = short_merge
    keys = [checks.record_key(r) for r in first]
    assert [r.plan_ms for r in first] != [r.plan_ms for r in second]
    assert [checks.record_key(r) for r in second] == keys


def test_sanity_check_rejects_a_non_finite_state(short_merge):
    _, first, _ = short_merge
    ticks = checks.replan_ticks(first)
    assert checks.insane_cycles(first, ticks) == set()
    broken = list(first)
    broken[13] = dataclasses.replace(broken[13], ego_x=float("nan"))
    assert checks.insane_cycles(broken, ticks) == {3}


def test_plan_time_check(short_merge):
    _, first, _ = short_merge
    total = sum(r.plan_ms for r in first) / 1e3
    assert checks.check_plan_time(first, total * 1.01) == []
    assert checks.check_plan_time(first, total * 0.99) != []


def test_outcome_share_follows_the_acceptance_suite():
    assert checks.needed(20) == 18
    assert checks.needed(10) == 9
    assert checks.needed(7) == 7
    assert checks.check_outcomes([True] * 9 + [False], "x") == []
    assert checks.check_outcomes([True] * 8 + [False] * 2, "x") != []


def _records(ego_s, other_s, ego_v=15.0):
    return [SimpleNamespace(t=i * DT, ego_s=e, ego_v=ego_v,
                            vehicles={"veh3": (o, 8.0)})
            for i, (e, o) in enumerate(zip(ego_s, other_s))]


def test_merge_order_check():
    zone = SimpleNamespace(start={"side": 10.0, "north": 20.0})
    ego = np.linspace(0.0, 30.0, 50)
    early, late = np.linspace(0.0, 200.0, 50), np.linspace(0.0, 25.0, 50)
    assert checks.merges_ahead(_records(ego, late), zone, "side", "north", "veh3")
    assert not checks.merges_ahead(_records(ego, early), zone, "side", "north",
                                   "veh3")
    never = np.full(50, 5.0)
    assert not checks.merges_ahead(_records(never, late), zone, "side",
                                   "north", "veh3")


def test_fluent_merge_check():
    recs = _records(np.zeros(5), np.zeros(5), ego_v=12.5)
    assert checks.fluent_merge(recs, [])
    assert not checks.fluent_merge(recs, [{"kind": "same_lane"}])
    assert not checks.fluent_merge(_records(np.zeros(5), np.zeros(5), 11.9), [])


def test_jerk_and_path_length():
    t = np.arange(40) * DT
    recs = [SimpleNamespace(ego_x=float(x), ego_y=0.0) for x in t**3]
    np.testing.assert_allclose(checks.jerk_squares(recs, DT), 36.0, rtol=1e-6)
    assert checks.path_length(recs) == pytest.approx(t[-1] ** 3)


def test_tracer_self_and_busy_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap(leaf, "leaf", "inner")

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracer.wrap(outer, "outer", "outer")()
    assert tracer.calls["leaf"] == 2 and tracer.calls["outer"] == 1
    assert tracer.busy["outer"] == pytest.approx(tracer.incl["outer"])
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.incl["outer"] - tracer.incl["leaf"])
    assert tracer.busy["inner"] == pytest.approx(tracer.incl["leaf"])
    nested = tracer.wrap(lambda: traced_leaf(), "wrapper", "inner")
    before = tracer.busy["inner"]
    nested()
    # a layer nested in itself is busy once, not twice
    assert tracer.busy["inner"] - before == pytest.approx(
        tracer.incl["wrapper"], rel=1e-9)
    parents = [s[3] for s in tracer.spans]
    assert parents[:3] == [-1, 0, 0]
