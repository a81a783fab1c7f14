"""Command line interface: subcommands, flags, exit codes, and outputs."""

import csv
import json

import pytest

from crossplan import cli
from crossplan.errors import PlanningError

from scenes import tiny_scenario_dict, write_scenario


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


def test_planner_errors_exit_with_code_one(scenario_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise PlanningError("induced failure")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["run", scenario_path, "--out", "/tmp/unused.csv"]) == 1
    assert "planner error" in capsys.readouterr().err


def test_bench_added_vehicles_are_seeded_deterministically(scenario_path):
    from crossplan import load_scenario
    sc = load_scenario(scenario_path)
    a = cli.add_random_vehicles(sc, 5)
    b = cli.add_random_vehicles(sc, 5)
    assert [(v.id, v.route_id, v.s, v.v) for v in a.vehicles] == \
        [(v.id, v.route_id, v.s, v.v) for v in b.vehicles]
    assert len(a.vehicles) == len(sc.vehicles) + 5


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["explode", "x.json"])
    assert exc.value.code == 2
