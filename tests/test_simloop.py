"""Closed-loop simulation: determinism, continuity, and collision auditing."""

import numpy as np
import pytest

from crossplan import (
    IdmParams,
    SimConfig,
    TraceRecord,
    VehicleSpec,
    collision_check,
    run,
    scenario_from_dict,
    simloop,
)
from crossplan.errors import ScenarioError
from crossplan.idm import VEHICLE_LENGTH
from crossplan.scenario import DOUBLE_INTEGRATOR, IDM_AGENT

from scenes import line_route, tiny_scenario_dict

VEHICLES = [{"id": "a", "route": "main", "s": 5.0, "v": 12.0},
            {"id": "b", "route": "main", "s": 40.0, "v": 11.0}]


def _tiny(duration=2.0, seed=3, **extra):
    raw = tiny_scenario_dict(duration=duration, vehicles=VEHICLES, seed=seed)
    raw.update(extra)
    return scenario_from_dict(raw)


def _key(trace):
    return [(r.t, r.ego_s, r.ego_x, r.ego_y, r.ego_v, r.selected,
             tuple(sorted(r.vehicles.items()))) for r in trace]


def test_same_seed_reproduces_the_trace_exactly():
    a = run(_tiny(), SimConfig())
    b = run(_tiny(), SimConfig())
    assert _key(a) == _key(b)


def test_seed_controls_the_agents():
    a = run(_tiny(seed=3), SimConfig())
    b = run(_tiny(seed=4), SimConfig())
    sa = [r.vehicles["a"][0] for r in a]
    sb = [r.vehicles["a"][0] for r in b]
    assert sa != sb
    # a seed given to the loader (as `--seed` does) replaces the file's
    raw = tiny_scenario_dict(duration=2.0, vehicles=VEHICLES, seed=3)
    c = run(scenario_from_dict(raw, seed=4), SimConfig())
    assert _key(b) == _key(c)


def test_trace_grid_and_duration():
    trace = run(_tiny(duration=1.5), SimConfig())
    t = np.array([r.t for r in trace])
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(1.5)
    assert np.allclose(np.diff(t), 0.05)
    longer = run(_tiny(duration=1.5), SimConfig(duration=2.0))
    assert longer[-1].t == pytest.approx(2.0)
    assert len(run(_tiny(), SimConfig(duration=0.0))) == 1
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="duration must be finite"):
            SimConfig(duration=bad)


def test_replanning_keeps_the_executed_trajectory_continuous():
    trace = run(_tiny(duration=4.0), SimConfig())
    xy = np.array([[r.ego_x, r.ego_y] for r in trace])
    dt = 0.05
    acc = (xy[2:] - 2.0 * xy[1:-1] + xy[:-2]) / dt ** 2
    # each replan splices onto the executed prefix: no acceleration spikes
    assert float(np.max(np.hypot(acc[:, 0], acc[:, 1]))) <= 5.0 + 0.5
    v = np.array([r.ego_v for r in trace])
    assert np.max(np.abs(np.diff(v))) < 0.4


def test_replan_cadence_must_align_with_the_sim_step():
    raw = tiny_scenario_dict(duration=1.0, vehicles=VEHICLES)
    # a cadence off the planning grid is rejected when the scenario loads
    with pytest.raises(ScenarioError, match="integer multiple"):
        scenario_from_dict(raw, overrides={"dt_replan": "0.13"})
    # a whole number of steps sets the cycle: 0.4 s is every 8th step
    slow = scenario_from_dict(raw, overrides={"dt_replan": "0.4"})
    assert slow.params.replan_steps == 8
    planned = [r.t for r in run(slow, SimConfig()) if r.plan_ms > 0.0]
    assert planned == pytest.approx([0.0, 0.4, 0.8])


def test_plan_timing_recorded_on_replan_ticks():
    trace = run(_tiny(duration=1.0), SimConfig())
    planned = [r for r in trace if r.plan_ms > 0.0]
    # 0.2 s cadence on a 1 s run: at least 4 planning cycles
    assert len(planned) >= 4
    assert all(r.selected for r in trace)


def _record(t, ego_s, vehicles):
    return TraceRecord(t=t, ego_s=ego_s, ego_x=ego_s, ego_y=0.0, ego_v=10.0,
                       ego_a_lon=0.0, ego_a_lat=0.0, ego_a_abs=0.0,
                       selected="follow_or_free", vehicles=vehicles)


def test_collision_check_flags_same_lane_overlap():
    raw = tiny_scenario_dict(vehicles=[
        {"id": "a", "route": "ramp", "s": 20.0, "v": 10.0}])
    sc = scenario_from_dict(raw)
    clean = [_record(0.0, 50.0, {"a": (20.0, 10.0)})]
    assert collision_check(clean, sc) == []
    overlap = [_record(0.0, 22.0, {"a": (20.0, 10.0)})]
    hits = collision_check(overlap, sc)
    assert len(hits) == 1
    assert hits[0]["kind"] == "same_lane"
    assert hits[0]["vehicle"] == "a"


def test_collision_check_flags_shared_lane_after_merge():
    raw = tiny_scenario_dict(vehicles=[
        {"id": "a", "route": "main", "s": 5.0, "v": 10.0}])
    sc = scenario_from_dict(raw)
    zone = sc.graph.zone_between("ramp", "main")
    s_e = zone.start["ramp"] + 10.0
    ok = [_record(0.0, s_e, {"a": (zone.start["main"] + 30.0, 10.0)})]
    assert collision_check(ok, sc) == []
    bad = [_record(0.0, s_e, {"a": (zone.start["main"] + 11.0, 10.0)})]
    assert [h["kind"] for h in collision_check(bad, sc)] == ["shared_lane"]


def test_closed_loop_tiny_merge_is_collision_free():
    sc = _tiny(duration=4.0)
    trace = run(sc, SimConfig())
    assert collision_check(trace, sc) == []


def test_idm_agent_keeps_a_gap_behind_a_slow_vehicle():
    def follower_gaps(agent):
        raw = tiny_scenario_dict(duration=8.0, vehicles=[
            {"id": "slow", "route": "main", "s": 40.0, "v": 2.0},
            {"id": "f", "route": "main", "s": 5.0, "v": 15.0,
             "agent": agent}])
        trace = run(scenario_from_dict(raw), SimConfig())
        gaps = [r.vehicles["slow"][0] - r.vehicles["f"][0] - VEHICLE_LENGTH
                for r in trace]
        return gaps, trace[-1].vehicles["f"][1]

    gaps, v_end = follower_gaps(IDM_AGENT)
    assert min(gaps) > 0.0
    assert v_end < 5.0  # it braked down to the slow vehicle's speed
    # a double integrator in the same place drives into the slow vehicle
    assert min(follower_gaps(DOUBLE_INTEGRATOR)[0]) < 0.0


@pytest.mark.parametrize("gap", [0.08, 0.01, 0.001, 0.0, -0.3])
def test_idm_agent_brakes_at_a_tiny_gap(gap):
    # 5 m/s behind a standing vehicle: the closer, the harder it brakes;
    # a gap of a few centimetres, or none, is no free road
    road = line_route("road", (0.0, 0.0), (300.0, 0.0))

    def speed_after_one_step(gap):
        rng = np.random.default_rng(0)
        agents = [simloop._Agent(VehicleSpec("f", "road", 10.0, 5.0,
                                             IDM_AGENT), road, rng),
                  simloop._Agent(VehicleSpec("stand", "road",
                                             10.0 + VEHICLE_LENGTH + gap, 0.0,
                                             IDM_AGENT), road, rng)]
        agents[0].step(*simloop._agent_leader(agents[0], agents), IdmParams())
        return agents[0].v

    assert speed_after_one_step(gap) <= speed_after_one_step(0.5) < 5.0
