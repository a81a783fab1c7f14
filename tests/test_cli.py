"""Command line interface: subcommands, flags, exit codes, and outputs."""

import csv
import json
import math

import pytest

from crossplan import cli, load_scenario
from crossplan.errors import PlanningError

from scenes import (MERGE_SCENARIO, T_JUNCTION_SCENARIO, add_random_vehicles,
                    start_gap, tiny_scenario_dict, write_scenario)


@pytest.fixture()
def scenario_path(tmp_path):
    raw = tiny_scenario_dict(duration=2.0, vehicles=[
        {"id": "a", "route": "main", "s": 5.0, "v": 12.0}])
    return str(write_scenario(tmp_path / "tiny.json", raw))


def test_check_validates_a_scenario(scenario_path, capsys):
    assert cli.main(["check", scenario_path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "1 vehicles" in out


def test_check_rejects_missing_file(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_rejects_malformed_scenario(tmp_path, capsys):
    raw = tiny_scenario_dict()
    del raw["duration"]
    path = write_scenario(tmp_path / "broken.json", raw)
    assert cli.main(["check", str(path)]) == 2


@pytest.mark.parametrize("command", ["check", "run"])
def test_zero_speed_limit_is_an_input_error(tmp_path, capsys, command):
    raw = tiny_scenario_dict()
    raw["routes"][1]["speed_limit"] = 0.0
    path = write_scenario(tmp_path / "zero.json", raw)
    out = tmp_path / "t.csv"
    args = [command, str(path)]
    if command == "run":
        args += ["--out", str(out)]
    assert cli.main(args) == 2
    assert "speed_limit must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    (lambda raw: raw.update(duration=-1.0), "duration"),
    (lambda raw: raw.update(duration=math.nan), "duration"),
    (lambda raw: raw["ego"].update(s=1.0e4), "ego: s off route"),
    (lambda raw: raw["ego"].update(v=-1.0), "ego: negative speed"),
    (lambda raw: raw.update(params={"dt_inter": -0.5}), "dt_inter"),
    (lambda raw: raw.update(params={"lambda3": 0.0}), "lambdas"),
    (lambda raw: raw["vehicles"].append(
        {"id": "a", "route": "main", "s": 5.0, "v": math.nan}),
     "vehicle a: negative speed"),
    (lambda raw: raw["ego"].update(v=math.inf), "ego: negative speed"),
    (lambda raw: raw["vehicles"].append(
        {"id": "a", "route": "main", "s": 5.0, "v": math.inf}),
     "vehicle a: negative speed"),
    (lambda raw: raw.update(params={"a_idm": math.nan}),
     "a_idm must be finite"),
    (lambda raw: raw.update(params=None), "params must be a JSON object"),
    (lambda raw: raw.update(params=[["w_c", 2.0]]),
     "params must be a JSON object"),
    (lambda raw: raw["routes"][1].update(speed_limit=math.inf),
     "speed_limit must be positive and finite"),
    (lambda raw: raw.update(seed=math.inf), "malformed scenario"),
    (lambda raw: raw.update(seed=2.7), "seed must be a whole number"),
    (lambda raw: raw.update(seed=True), "seed must be a whole number"),
    (lambda raw: raw.update(params={"a_idm": True}), "a_idm must be a number"),
    (lambda raw: raw.update(duration=True), "duration must be a number"),
    (lambda raw: raw["ego"].update(v=True), "ego: v must be a number"),
    (lambda raw: raw["vehicles"].append(
        {"id": "a", "route": "main", "s": True, "v": 5.0}),
     "vehicle a: s must be a number"),
    (lambda raw: raw["routes"][1].update(speed_limit=True),
     "speed_limit must be a number"),
    (lambda raw: raw["routes"][0]["points"][0].__setitem__(0, False),
     "points must be numbers"),
    (lambda raw: raw.update(duration="1.0"), "duration must be a number"),
    (lambda raw: raw.update(seed="3"), "seed must be a whole number"),
    (lambda raw: raw["ego"].update(v="12"), "ego: v must be a number"),
    (lambda raw: raw["vehicles"].append(
        {"id": "a", "route": "main", "s": "5", "v": 5.0}),
     "vehicle a: s must be a number"),
    (lambda raw: raw["routes"][1].update(speed_limit="15"),
     "speed_limit must be a number"),
    (lambda raw: raw["routes"][0]["points"][0].__setitem__(0, "-200"),
     "points must be numbers"),
    (lambda raw: raw.update(params={"a_max": "2.0"}),
     "params must be a JSON object of numbers and booleans"),
    (lambda raw: raw.update(params={"use_virtual_leader": 1}),
     "cannot parse boolean from 1"),
    (lambda raw: raw.update(params={"use_virtual_leader": 0}),
     "cannot parse boolean from 0"),
    (lambda raw: raw["routes"][0]["points"][1].__setitem__(0, math.nan),
     "route main: points must be finite"),
    (lambda raw: raw["routes"][1]["points"][2].__setitem__(1, math.inf),
     "route ramp: points must be finite"),
], ids=["negative_duration", "nan_duration", "ego_off_route",
        "negative_ego_speed", "negative_dt_inter", "zero_lambda",
        "nan_vehicle_speed", "infinite_ego_speed", "infinite_vehicle_speed",
        "nan_param", "null_params", "list_params", "infinite_speed_limit",
        "infinite_seed", "fractional_seed", "boolean_seed", "boolean_param",
        "boolean_duration", "boolean_ego_speed", "boolean_vehicle_s",
        "boolean_speed_limit", "boolean_point", "string_duration",
        "string_seed", "string_ego_speed", "string_vehicle_s",
        "string_speed_limit", "string_point", "string_param",
        "one_as_bool_param", "zero_as_bool_param", "nan_point",
        "infinite_point"])
def test_check_rejects_out_of_range_inputs(tmp_path, capsys, change,
                                           message):
    raw = tiny_scenario_dict()
    change(raw)
    path = write_scenario(tmp_path / "bad.json", raw)
    assert cli.main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_negative_seed_is_an_input_error(tmp_path, capsys, command, source):
    raw = tiny_scenario_dict()
    if source == "file":
        raw["seed"] = -1
    path = write_scenario(tmp_path / "seed.json", raw)
    out = tmp_path / "t.csv"
    args = [command, str(path)]
    if source == "flag":
        args += ["--seed", "-1"]
    if command == "run":
        args += ["--out", str(out)]
    assert cli.main(args) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_trace_and_summary(scenario_path, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert cli.main(["run", scenario_path, "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[:2] == ["t", "ego_s"]
    assert "veh1_s" in header
    assert len(data) == int(2.0 / 0.05) + 1  # one row per sim step
    assert all(len(r) == len(header) for r in data)
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["scenario"] == "tiny_merge"
    assert summary["collisions"] == []
    assert summary["min_speed"] > 0.0
    assert summary["selection_timeline"]
    printed = json.loads(capsys.readouterr().out)
    assert printed == summary


def test_run_reports_the_solver_status_of_each_cycle(scenario_path, tmp_path,
                                                   capsys):
    out = tmp_path / "trace.csv"
    # a tight acceleration limit sends some cycles to the active-set solver
    assert cli.main(["run", scenario_path, "--set", "a_max=0.5",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    assert header.index("solver_status") == header.index("plan_ms") + 1
    statuses = {"closed_form", "converged", "braking_bypass", "not_converged",
                "reference_fallback"}
    assert all(r["solver_status"] in statuses for r in rows)
    cycles = [r["solver_status"] for r in rows if float(r["plan_ms"]) > 0.0]
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    counts = summary["solver_status_cycles"]
    assert counts == {s: cycles.count(s) for s in sorted(set(cycles))}
    assert sum(counts.values()) == int(2.0 / 0.2)  # one per 0.2 s cycle
    assert set(counts) - {"closed_form"}


def test_run_seed_flag_changes_agent_motion(scenario_path, tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"t{seed}.csv"
        assert cli.main(["run", scenario_path, "--seed", str(seed),
                         "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] != outs[1]


def test_set_flag_overrides_parameters(scenario_path, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert cli.main(["run", scenario_path, "--set", "w_c=2.5",
                     "--set", "h_ttc_const=0.4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["run", scenario_path, "--set", "not_a_param=1",
                     "--out", str(out)]) == 2
    assert "not_a_param" in capsys.readouterr().err
    assert cli.main(["run", scenario_path, "--set", "garbage",
                     "--out", str(out)]) == 2


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("pair,why", [
    ("a_idm=-1", "a_idm must be positive"),
    # the planning grid and the vehicle length are fixed
    ("n_opt=3", "unknown parameter 'n_opt'"),
    ("n_ref=50", "unknown parameter 'n_ref'"),
    ("dt=0.1", "unknown parameter 'dt'"),
    ("vehicle_length=4.0", "unknown parameter 'vehicle_length'"),
    ("dt_replan=0.13", "must be an integer multiple of the planning step"),
    # no key takes a value that is not finite
    ("a_idm=nan", "a_idm must be finite"),
    ("T=inf", "T must be finite"),
    ("w_acc=nan", "w_acc must be finite"),
    ("w_c=nan", "w_c must be finite"),
    ("a_max=nan", "a_max must be finite"),
    ("sigma_d=nan", "sigma_d must be finite"),
])
def test_bad_parameters_exit_with_code_two(scenario_path, tmp_path, capsys,
                                           command, pair, why):
    out = tmp_path / "t.csv"
    args = [command, scenario_path, "--set", pair]
    if command == "run":
        args += ["--out", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert why in err
    assert not out.exists()


def test_run_checks_the_output_directory_before_simulating(
        scenario_path, tmp_path, monkeypatch, capsys):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(cli, "run", simulate)
    out = tmp_path / "missing" / "t.csv"
    assert cli.main(["run", scenario_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no such directory" in err
    assert not out.parent.exists()


def test_planner_errors_exit_with_code_one(scenario_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise PlanningError("induced failure")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["run", scenario_path, "--out", "/tmp/unused.csv"]) == 1
    assert "planner error" in capsys.readouterr().err


def test_bench_added_vehicles_are_seeded_deterministically(scenario_path):
    sc = load_scenario(scenario_path)
    a = add_random_vehicles(sc, 5)
    b = add_random_vehicles(sc, 5)
    assert [(v.id, v.route_id, v.s, v.v) for v in a.vehicles] == \
        [(v.id, v.route_id, v.s, v.v) for v in b.vehicles]
    assert len(a.vehicles) == len(sc.vehicles) + 5


@pytest.mark.parametrize("path", [MERGE_SCENARIO, T_JUNCTION_SCENARIO])
@pytest.mark.parametrize("seed", range(6))
def test_added_vehicles_start_ahead_of_the_ego_on_its_route(path, seed):
    sc = add_random_vehicles(load_scenario(path, seed=seed), 10)
    assert len(sc.vehicles) == len(load_scenario(path).vehicles) + 10
    for v in sc.vehicles:
        if v.route_id == sc.ego_route_id:
            assert v.s >= sc.ego_s + start_gap(sc), v


def test_an_added_vehicle_starts_beyond_the_egos_braking_distance():
    # with 40 added vehicles `bench31` once started on `ramp` 5.02 m ahead
    # of the ego's centre, 0.02 m bumper to bumper and 6.4 m/s slower
    sc = add_random_vehicles(load_scenario(MERGE_SCENARIO, seed=0), 40)
    bench31 = next(v for v in sc.vehicles if v.id == "bench31")
    assert (bench31.route_id, sc.ego_route_id, sc.ego_s) == (
        "ramp", "ramp", 20.0)
    assert bench31.s >= sc.ego_s + start_gap(sc)


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["explode", "x.json"])
    assert exc.value.code == 2
