"""Planner parameters and scenario file parsing."""

import copy
import math
from dataclasses import fields

import pytest

from crossplan import (ArbiterParams, IdmParams, OptimizerWeights,
                       PlannerParams, PredictorParams, load_scenario,
                       scenario_from_dict)
from crossplan.errors import ScenarioError
from crossplan.scenario import DOUBLE_INTEGRATOR

from scenes import tiny_scenario_dict, write_scenario


def test_with_overrides_coerces_types():
    base = PlannerParams()
    p = base.with_overrides({"w_c": "4", "dt_replan": "0.4",
                             "use_virtual_leader": "false"})
    assert p.arbiter.w_c == 4.0
    assert p.dt_replan == 0.4
    assert p.replan_steps == 8
    assert p.use_virtual_leader is False
    assert base.arbiter.w_c == 1.0  # original untouched


@pytest.mark.parametrize("text,value", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("False", False), ("no", False), ("off", False),
])
def test_boolean_override_spellings(text, value):
    assert PlannerParams().with_overrides(
        {"use_virtual_leader": text}).use_virtual_leader is value


def test_unknown_override_key_rejected():
    # the planning grid is fixed: its sizes and step are no keys
    for key in ("bogus", "n_ref", "n_opt", "dt", "sim_step"):
        with pytest.raises(ValueError, match="unknown parameter"):
            PlannerParams().with_overrides({key: "1"})


def test_layer_params_reflect_overrides():
    p = PlannerParams().with_overrides({"h_ttc_const": "0.6", "T": "2.0",
                                        "sigma_d": "0.2", "a_max": "4.0"})
    assert p.arbiter.h_ttc_const == 0.6
    assert p.idm.T == 2.0
    assert p.predictor.sigma_d == 0.2
    assert p.optimizer.a_max == 4.0


LAYERS = {"idm": IdmParams, "predictor": PredictorParams,
          "arbiter": ArbiterParams, "optimizer": OptimizerWeights}
OWN_KEYS = ["dt_replan", "use_virtual_leader"]


def _override_keys():
    """(key, owning layer or None) for every field an override can name."""
    keys = [(f.name, layer) for layer, cls in LAYERS.items()
            for f in fields(cls)]
    return keys + [(k, None) for k in OWN_KEYS]


def test_planner_params_compose_the_layer_params():
    assert [f.name for f in fields(PlannerParams)] == [*LAYERS, *OWN_KEYS]
    p = PlannerParams()
    for layer, cls in LAYERS.items():
        assert getattr(p, layer) == cls()


def test_override_keys_are_unambiguous():
    names = [key for key, _ in _override_keys()]
    assert len(set(names)) == len(names) == 25
    for layer in LAYERS:  # a layer is not a key
        with pytest.raises(ValueError, match="unknown parameter"):
            PlannerParams().with_overrides({layer: "1"})


@pytest.mark.parametrize("key,layer", _override_keys())
def test_each_override_key_lands_on_its_owner(key, layer):
    base = PlannerParams()
    owner = base if layer is None else getattr(base, layer)
    current = getattr(owner, key)
    value = not current if isinstance(current, bool) else current * 0.5
    p = base.with_overrides({key: str(value)})
    changed = p if layer is None else getattr(p, layer)
    assert getattr(changed, key) == value
    for other in LAYERS:  # every other layer is untouched
        if other != layer:
            assert getattr(p, other) == getattr(base, other)


@pytest.mark.parametrize("overrides,match", [
    ({"a_idm": "-1"}, "a_idm must be positive"),
    ({"sigma_d": "0"}, "sigmas must be positive"),
    ({"da_max": "-0.1"}, "da_max must be >= 0"),
    ({"a_max": "0"}, "a_max must be positive"),
    ({"a_idm": "nan"}, "a_idm must be finite"),
    ({"T": "inf"}, "T must be finite"),
    ({"dt_replan": "0"}, "dt_replan must be positive"),
    ({"dt_replan": "inf"}, "dt_replan must be finite"),
    ({"dt_replan": "1e-10"}, "must be an integer multiple of the planning step"),
])
def test_bad_parameter_values_are_rejected_at_load_time(overrides, match):
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(tiny_scenario_dict(), overrides=overrides)


def test_scenario_round_trip_and_defaults():
    raw = tiny_scenario_dict(vehicles=[
        {"id": "a", "route": "main", "s": 10.0, "v": 12.0}])
    sc = scenario_from_dict(raw)
    assert sc.name == "tiny_merge"
    assert sc.ego_route.id == "ramp"
    assert sc.vehicles[0].agent == DOUBLE_INTEGRATOR
    assert sc.graph.must_yield("ramp")
    assert sc.seed == raw["seed"]
    assert scenario_from_dict(raw, seed=99).seed == 99
    assert scenario_from_dict(
        raw, overrides={"w_c": "2"}).params.arbiter.w_c == 2.0


def test_scenario_params_block_applies_before_overrides():
    raw = tiny_scenario_dict()
    raw["params"] = {"w_c": 3.0, "dt_max": 2.0}
    sc = scenario_from_dict(raw, overrides={"w_c": "5"})
    assert sc.params.arbiter.w_c == 5.0
    assert sc.params.arbiter.dt_max == 2.0


@pytest.mark.parametrize("mutate,match", [
    (lambda r: r.pop("routes"), "missing 'routes'"),
    (lambda r: r.pop("duration"), "missing 'duration'"),
    (lambda r: r.pop("ego"), "missing 'ego'"),
    (lambda r: r["ego"].update(route="nowhere"), "not defined"),
    (lambda r: r["vehicles"][0].update(route="nowhere"), "unknown route"),
    (lambda r: r["vehicles"][0].update(s=-5.0), "off route"),
    (lambda r: r["vehicles"][0].update(s=1e6), "off route"),
    (lambda r: r["vehicles"][0].update(v=-1.0), "negative speed"),
    (lambda r: r["vehicles"][0].update(agent="walker"), "unknown agent"),
    (lambda r: r["vehicles"].append(dict(r["vehicles"][0])), "duplicate"),
    (lambda r: r["routes"][1].update(id="main"), "duplicate route ids"),
    (lambda r: r["routes"][0].pop("points"), "malformed"),
    (lambda r: r["routes"][0]["points"][1].__setitem__(0, math.nan),
     "route main: points must be finite"),
    (lambda r: r["routes"][1]["points"][0].__setitem__(1, -math.inf),
     "route ramp: points must be finite"),
])
def test_scenario_validation_errors(mutate, match):
    raw = tiny_scenario_dict(vehicles=[
        {"id": "a", "route": "main", "s": 10.0, "v": 12.0}])
    raw = copy.deepcopy(raw)
    mutate(raw)
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(raw)


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(bad)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(binary)


def test_load_scenario_from_file(tmp_path):
    path = write_scenario(tmp_path / "tiny.json", tiny_scenario_dict())
    sc = load_scenario(path, seed=7)
    assert sc.seed == 7
    assert set(sc.graph.routes) == {"main", "ramp"}


def test_bundled_scenarios_are_valid():
    from scenes import MERGE_SCENARIO, T_JUNCTION_SCENARIO
    merge = load_scenario(MERGE_SCENARIO)
    assert merge.graph.zone_between("ramp", "main").kind == "merging"
    tj = load_scenario(T_JUNCTION_SCENARIO)
    assert tj.graph.zone_between("side", "south").kind == "crossing"
    assert len(tj.vehicles) == 3
