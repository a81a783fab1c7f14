"""Car-following model: acceleration law, speed profiles, and rollouts."""

import math

import numpy as np
import pytest

from crossplan import (
    IdmParams,
    LongState,
    LongTrajectory,
    Polyline,
    Route,
    SpeedProfile,
    idm_acceleration,
    rollout,
    target_speed_profile,
)
from crossplan.errors import HorizonMismatch, NonPositiveGap
from crossplan.idm import (_GAP_EPS, A_LAT_MAX, HARD_DECEL, PROFILE_DECEL,
                           PROFILE_STEP, VEHICLE_LENGTH, closer_leader,
                           route_profile, stop_target)

from scenes import (circle_route, line_route, merge_scenario, moved_main,
                    t_junction_scenario)


def reference_acceleration(v, v0, gap, dv, p):
    """Independent transcription of the car-following law used as oracle."""
    a = p.a_idm * (1.0 - (v / v0) ** p.delta)
    if gap is not None:
        dv = 0.0 if dv is None else dv
        s_star = p.s0 + v * p.T + v * dv / (2.0 * math.sqrt(p.a_idm * p.b))
        a -= p.a_idm * (s_star / gap) ** 2
    return min(max(a, -HARD_DECEL), p.a_idm)


def random_idm_inputs(rng, n):
    v = rng.uniform(0.0, 35.0, n)
    v0 = rng.uniform(1.0, 35.0, n)
    gap = rng.uniform(0.5, 200.0, n)
    dv = rng.uniform(-15.0, 15.0, n)
    free = rng.random(n) < 0.25
    return v, v0, np.where(free, np.nan, gap), dv


def test_acceleration_matches_independent_transcription():
    rng = np.random.default_rng(42)
    p = IdmParams()
    v, v0, gap, dv = random_idm_inputs(rng, 2000)
    for i in range(len(v)):
        g = None if np.isnan(gap[i]) else float(gap[i])
        got = idm_acceleration(float(v[i]), float(v0[i]), g, float(dv[i]), p)
        want = reference_acceleration(float(v[i]), float(v0[i]), g,
                                      float(dv[i]), p)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_free_road_limits():
    p = IdmParams()
    assert idm_acceleration(0.0, 20.0) == pytest.approx(p.a_idm)
    assert idm_acceleration(20.0, 20.0) == pytest.approx(0.0)
    assert idm_acceleration(30.0, 20.0) < 0.0
    # clamped to the hard-deceleration floor for a closing tiny gap
    assert idm_acceleration(30.0, 30.0, gap=0.5, dv=20.0) == -HARD_DECEL


def test_missing_dv_defaults_to_zero():
    a = idm_acceleration(10.0, 20.0, gap=30.0)
    b = idm_acceleration(10.0, 20.0, gap=30.0, dv=0.0)
    assert a == b


def test_non_positive_gap_raises():
    with pytest.raises(NonPositiveGap):
        idm_acceleration(10.0, 20.0, gap=0.0)
    with pytest.raises(NonPositiveGap):
        idm_acceleration(10.0, 20.0, gap=-3.0)


def equilibrium_gap(v, v0, p):
    """Gap at which a follower of a same-speed leader has zero acceleration."""
    s_star = p.s0 + v * p.T
    return s_star / math.sqrt(1.0 - (v / v0) ** p.delta)


@pytest.mark.parametrize("v", [5.0, 10.0, 15.0, 20.0])
def test_equilibrium_gap_rollout_holds_speed(v):
    p = IdmParams()
    v0 = 30.0
    n, dt = 201, 0.05
    gap = equilibrium_gap(v, v0, p)
    t = np.arange(n) * dt
    leader = LongTrajectory(1000.0 + v * t, np.full(n, v), dt)
    start = LongState(1000.0 - VEHICLE_LENGTH - gap, v)
    profile = SpeedProfile(0.0, 1e4, np.array([v0, v0]))
    traj = rollout(start, profile, leader=leader, params=p, n=n, dt=dt)
    assert np.max(np.abs(traj.v - v)) <= 1e-3


def test_rollout_rests_minimum_gap_before_stop_target():
    p = IdmParams()
    profile = SpeedProfile(0.0, 1e4, np.array([20.0, 20.0]))
    traj = rollout(LongState(0.0, 15.0), profile, stop_at=150.0, params=p,
                   n=501, dt=0.05)
    assert traj.v[-1] < 0.05
    assert 150.0 - p.s0 - 1.0 <= traj.s[-1] <= 150.0 - p.s0 + 0.05
    assert np.all(traj.v >= 0.0)


def test_stop_target_is_the_entry_until_the_front_reaches_it():
    ramp = line_route("ramp", (0.0, 0.0), (200.0, 0.0),
                      intersection_start=80.0)
    front = 0.5 * VEHICLE_LENGTH
    assert stop_target(ramp, 0.0) == 80.0
    assert stop_target(ramp, 80.0 - front - 0.01) == 80.0
    assert stop_target(ramp, 80.0 - front) is None  # front exactly at the line
    assert stop_target(ramp, 120.0) is None
    assert stop_target(line_route("main", (0.0, 0.0), (200.0, 0.0)),
                       0.0) is None  # no intersection on the route


def test_rollout_converges_to_profile_speed():
    profile = SpeedProfile(0.0, 1e4, np.array([12.0, 12.0]))
    traj = rollout(LongState(0.0, 2.0), profile, n=601, dt=0.05)
    assert traj.v[-1] == pytest.approx(12.0, abs=0.1)
    assert np.all(np.diff(traj.v) >= -1e-12)


def test_rollout_input_validation():
    profile = SpeedProfile(0.0, 1e4, np.array([10.0, 10.0]))
    short_leader = LongTrajectory(np.arange(50.0), np.ones(50), 0.05)
    with pytest.raises(HorizonMismatch):
        rollout(LongState(0.0, 5.0), profile, leader=short_leader, n=201)
    with pytest.raises(ValueError):
        rollout(LongState(0.0, 5.0), profile, n=1)


def test_trajectory_container_accessors():
    dt = 0.1
    s = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([10.0, 10.0, 10.0, 10.0])
    traj = LongTrajectory(s, v, dt, t0=1.0)
    assert len(traj) == 4
    assert np.allclose(traj.accelerations(), 0.0)
    assert traj.first_index_reaching(1.5) == 2
    assert traj.first_index_reaching(0.0) == 0
    assert traj.first_index_reaching(9.0) is None
    with pytest.raises(ValueError):
        LongTrajectory([0.0], [1.0], dt)


def _leader(s, v):
    return LongTrajectory(np.asarray(s, float), np.asarray(v, float), 0.05)


def test_closer_leader_without_a_first_leader_is_the_second():
    b = _leader([10.0, 11.0, 12.0], [20.0, 20.0, 20.0])
    assert closer_leader(None, b) is b


def test_closer_leader_picks_per_sample_and_ties_go_to_the_first():
    a = _leader([10.0, 12.0, 14.0, 16.0], [40.0, 40.0, 40.0, 40.0])
    b = _leader([13.0, 12.0, 13.0, 20.0], [26.0, 24.0, 26.0, 40.0])
    got = closer_leader(a, b)
    assert got is not a and got is not b
    assert got.s.tolist() == [10.0, 12.0, 13.0, 16.0]
    assert got.v.tolist() == [40.0, 40.0, 26.0, 40.0]  # tie at sample 1: a


def test_closer_leader_is_the_first_exactly_when_it_binds_throughout():
    a = _leader([10.0, 11.0, 12.0], [20.0, 20.0, 20.0])
    ahead = _leader([10.0, 15.0, np.inf], [20.0, 30.0, 30.0])  # ties, then far
    assert closer_leader(a, ahead) is a
    for k in range(3):
        s = np.array(ahead.s)
        s[k] = a.s[k] - 0.5  # closer at one sample
        assert closer_leader(a, _leader(s, ahead.v)) is not a


def test_closer_leader_is_as_long_as_the_shorter_input():
    near = _leader(np.arange(6.0), np.ones(6))
    far = _leader(np.arange(4.0) + 100.0, np.ones(4))
    got = closer_leader(near, far)  # `near` binds at every shared sample
    assert got is not near and len(got) == 4
    assert got.s.tolist() == near.s[:4].tolist()
    assert len(closer_leader(far, near)) == 4
    short_near = _leader(near.s[:4], near.v[:4])
    assert closer_leader(short_near, _leader(near.s + 50.0, near.v)) \
        is short_near


def test_idm_params_validation():
    with pytest.raises(ValueError):
        IdmParams(a_idm=0.0)
    with pytest.raises(ValueError):
        IdmParams(T=-1.0)


def test_speed_profile_interpolation_and_clamping():
    profile = SpeedProfile(10.0, 5.0, np.array([4.0, 8.0, 6.0]))
    assert profile.v_at(0.0) == 4.0
    assert profile.v_at(12.5) == pytest.approx(6.0)
    assert profile.v_at(15.0) == 8.0
    assert profile.v_at(100.0) == 6.0


def test_curvature_limits_target_speed_profile():
    radius = 50.0
    route = circle_route("c", radius, n=400, limit=20.0)
    profile = target_speed_profile(route, 20.0)
    v_mid = profile.v_at(0.5 * route.length)
    assert v_mid == pytest.approx(math.sqrt(A_LAT_MAX * radius), rel=0.02)
    straight = line_route("s", [0.0, 0.0], [200.0, 0.0], limit=20.0)
    assert target_speed_profile(straight, 20.0).v_at(100.0) == pytest.approx(20.0)


def bend_route():
    """Straight approach into a tight curve."""
    theta = np.linspace(0.0, np.pi / 2, 60)
    curve = np.stack([8.0 * np.sin(theta), 8.0 * (1.0 - np.cos(theta))],
                     axis=1)
    approach = np.stack([np.linspace(-150.0, -1.0, 100),
                         np.zeros(100)], axis=1)
    return Route(id="r", centerline=Polyline(np.vstack([approach, curve])),
                 speed_limit=20.0, intersection_start=None)


def test_speed_profile_backward_pass_bounds_deceleration():
    # braking for the curve is spread over the approach
    route = bend_route()
    profile = target_speed_profile(route, 20.0)
    # measure on the profile's own grid; v is piecewise linear between nodes
    s = profile.s0_grid + profile.ds * np.arange(len(profile.v))
    v = np.array([profile.v_at(x) for x in s])
    rate = np.diff(v ** 2) / (2.0 * profile.ds)
    assert rate.min() >= -PROFILE_DECEL - 1e-6
    assert v.min() < 5.0  # the curve forces real braking


def capped_profile_loop(route, v_limit, a_lat_max, decel):
    """The backward pass run on speeds already capped at the limit."""
    # the count ignores the rounding of the length
    n = max(int(math.ceil(route.length / 0.5 - 1e-9)) + 1, 2)
    s = np.linspace(0.0, route.length, n)
    ds = s[1] - s[0]
    kappa = np.abs([route.centerline.curvature_at(si) for si in s])
    v = np.minimum(v_limit, np.sqrt(a_lat_max / np.maximum(kappa, 1e-6)))
    for i in range(n - 2, -1, -1):
        v[i] = min(v[i], math.sqrt(v[i + 1] ** 2 + 2.0 * decel * ds))
    return float(ds), v


@pytest.mark.parametrize("route", [
    circle_route("c", 30.0),
    bend_route(),
    merge_scenario().ego_route,
    t_junction_scenario().ego_route,
    moved_main(),
], ids=["circle", "bend", "merge_rural_ego", "t_junction_ego",
        "merge_rural_main_moved"])
@pytest.mark.parametrize("a_lat_max, decel", [(A_LAT_MAX, PROFILE_DECEL)])
def test_capping_the_curve_limit_equals_the_capped_backward_pass(
        route, a_lat_max, decel):
    _, uncapped = capped_profile_loop(route, math.inf, a_lat_max, decel)
    lo, hi = float(uncapped.min()), float(uncapped.max())
    limits = [0.5 * lo, lo, 0.5 * (lo + hi), hi, 2.0 * hi, 0.1, math.inf,
              route.speed_limit]
    for v_limit in limits:
        ds, want = capped_profile_loop(route, v_limit, a_lat_max, decel)
        profile = target_speed_profile(route, v_limit)
        assert profile.s0_grid == 0.0
        assert profile.ds == ds
        assert len(profile.v) == len(route.centerline.grid(PROFILE_STEP))
        assert np.array_equal(profile.v, want), v_limit


def test_route_profile_is_one_shared_object_per_route():
    route = merge_scenario().ego_route
    profile = route_profile(route)
    assert route_profile(route) is profile
    assert np.array_equal(
        profile.v, target_speed_profile(route, route.speed_limit).v)


def float64_rollout(start, profile, leader=None, stop_at=None,
                    params=IdmParams(), n=201, dt=0.05,
                    vehicle_length=VEHICLE_LENGTH):
    """The rollout loop as it ran on numpy scalars: every index into the
    profile, the leader and the output arrays yields an np.float64."""
    leader_s = leader.s if leader is not None else None
    leader_v = leader.v if leader is not None else None
    prof_s0, prof_v = profile.s0_grid, profile.v
    prof_inv_ds = 1.0 / profile.ds
    prof_n = len(prof_v) - 1
    a_idm, delta, s0_p, T = params.a_idm, params.delta, params.s0, params.T
    two_sqrt_ab = 2.0 * math.sqrt(params.a_idm * params.b)
    s_out = np.empty(n)
    v_out = np.empty(n)
    s = start.s
    v = max(start.v, 0.0)
    for i in range(n - 1):
        s_out[i] = s
        v_out[i] = v
        x = (s - prof_s0) * prof_inv_ds
        if x <= 0.0:
            v0 = prof_v[0]
        elif x >= prof_n:
            v0 = prof_v[prof_n]
        else:
            j = int(x)
            f = x - j
            v0 = prof_v[j] * (1.0 - f) + prof_v[j + 1] * f
        gap = None
        dv = 0.0
        if leader_s is not None:
            g = leader_s[i] - s - vehicle_length
            gap = g if g > _GAP_EPS else _GAP_EPS
            dv = v - leader_v[i]
        if stop_at is not None:
            g_stop = stop_at - s
            if g_stop <= _GAP_EPS:
                g_stop = _GAP_EPS
            if gap is None or g_stop < gap:
                gap = g_stop
                dv = v
        if gap is None:
            a = a_idm * (1.0 - (v / v0) ** delta)
        else:
            s_star = s0_p + v * T + v * dv / two_sqrt_ab
            a = a_idm * (1.0 - (v / v0) ** delta - (s_star / gap) ** 2)
        if a > a_idm:
            a = a_idm
        elif a < -HARD_DECEL:
            a = -HARD_DECEL
        s = s + v * dt
        v = v + a * dt
        if v < 0.0:
            v = 0.0
    s_out[n - 1] = s
    v_out[n - 1] = v
    return s_out, v_out


def _braking_leader(n, s0=60.0, v0=14.0, decel=3.0, dt=0.05):
    t = np.arange(n) * dt
    v = np.maximum(v0 - decel * t, 0.0)
    return LongTrajectory(s0 + np.cumsum(v) * dt - v[0] * dt, v, dt)


_GRID_PROFILE = SpeedProfile(
    37.25, 0.5, np.random.default_rng(5).uniform(6.0, 18.0, 301))

ROLLOUT_CASES = {
    "free_road": dict(start=LongState(12.3, 9.7),
                      profile=target_speed_profile(bend_route(), 20.0)),
    "leader_only": dict(start=LongState(3.0, 15.0),
                        profile=_GRID_PROFILE, leader=_braking_leader(201)),
    "stop_target_only": dict(start=LongState(40.0, 13.0),
                             profile=_GRID_PROFILE, stop_at=130.0),
    "leader_and_stop_target": dict(start=LongState(0.0, 16.0),
                                   profile=_GRID_PROFILE,
                                   leader=_braking_leader(201, s0=40.0,
                                                          decel=0.0),
                                   stop_at=60.0),
    "float64_start_and_stop": dict(
        start=LongState(np.float64(41.7), np.float64(12.1)),
        profile=_GRID_PROFILE, stop_at=np.float64(120.25)),
    "leader_longer_than_n": dict(start=LongState(3.0, 15.0),
                                 profile=_GRID_PROFILE,
                                 leader=_braking_leader(301)),
    "speed_clamped_at_zero": dict(start=LongState(50.0, 18.0),
                                  profile=_GRID_PROFILE, stop_at=58.0,
                                  n=121),
    "profile_grid_not_at_zero": dict(start=LongState(20.0, 4.0),
                                     profile=_GRID_PROFILE, n=401),
}


@pytest.mark.parametrize("case", ROLLOUT_CASES.values(),
                         ids=list(ROLLOUT_CASES))
def test_rollout_equals_the_float64_loop_bitwise(case):
    traj = rollout(**case)
    want_s, want_v = float64_rollout(**case)
    assert np.array_equal(traj.s, want_s)
    assert np.array_equal(traj.v, want_v)


def test_rollout_cases_reach_their_branches():
    profile = _GRID_PROFILE
    grid_end = profile.s0_grid + profile.ds * (len(profile.v) - 1)
    clamped = rollout(**ROLLOUT_CASES["speed_clamped_at_zero"])
    assert clamped.v.min() == 0.0
    # the leader binds first, the stop target later
    case = ROLLOUT_CASES["leader_and_stop_target"]
    traj = rollout(**case)
    leader_gap = case["leader"].s - traj.s - VEHICLE_LENGTH
    stop_binds = case["stop_at"] - traj.s < leader_gap
    assert not stop_binds[0] and stop_binds[-1]
    beyond = rollout(**ROLLOUT_CASES["profile_grid_not_at_zero"])
    assert beyond.s[0] < profile.s0_grid and beyond.s[-1] > grid_end


def float64_v_at(profile, s):
    """`SpeedProfile.v_at` as it ran on numpy scalars."""
    x = (s - profile.s0_grid) / profile.ds
    if x <= 0.0:
        return float(profile.v[0])
    n = len(profile.v) - 1
    if x >= n:
        return float(profile.v[-1])
    i = int(x)
    f = x - i
    return float(profile.v[i] * (1.0 - f) + profile.v[i + 1] * f)


def test_v_at_equals_the_float64_lookup():
    profile = _GRID_PROFILE
    grid = profile.s0_grid + profile.ds * np.arange(len(profile.v))
    rng = np.random.default_rng(6)
    s = np.concatenate(([0.0, profile.s0_grid - 3.0], grid,
                        rng.uniform(grid[0], grid[-1], 500),
                        [grid[-1] + 0.1, grid[-1] + 80.0]))
    for x in s:
        got = profile.v_at(float(x))
        assert type(got) is float
        assert got == float64_v_at(profile, float(x))
        assert profile.v_at(np.float64(x)) == got
