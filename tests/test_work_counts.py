"""Deterministic work counts of one planning episode. Prediction, behavior
and the arbiter each call `rollout` through their own module binding; how
often they do is a pure function of the scenario, so a skip that stops
working (a vetoed option scored on, a shadowed reaction re-simulated, a
vehicle's drive rolled out twice, a shadowed merge rolled out) fails here
without any timing. So do the optimizer's constrained solves and their
active-set iterations, and the segment pairs whose conflict-zone intervals
building a route graph measures."""

import math
import types

import pytest

from crossplan import (SimConfig, arbiter, geometry, load_scenario, optimizer,
                       run)

from scenes import (ROLLOUT_LAYERS, SCENARIO_DIR, T_JUNCTION_SCENARIO,
                    add_random_vehicles, count_options, count_rollouts)

# rollouts per binding over the 8 s episode below
EXPECTED_ROLLOUTS = {"prediction": 120, "behavior": 98, "arbiter": 30}

# constrained solves (those that reach the active-set solver) and their
# summed `NlpResult.iterations` over the bundled t_junction episode at
# agent seed 0 under a_max=2, as in planbench's tjunction_comfort
EXPECTED_CONSTRAINED = {"solves": 5, "iterations": 10}

# segment pairs measured while loading each bundled scene, all of them in
# its route graph's conflict zones: the pairs that the box filter keeps, each
# measured from both of its segments; without the filter every pair of
# segments of two routes would be, 35,100 and 53,600
EXPECTED_GRAPH_PAIRS = {"merge_rural": 376, "t_junction": 392}

# rollouts per binding and options generated over 4 s of each bundled scene
# with 40 added vehicles, traffic in which the real leader shadows most
# merges
EXPECTED_DENSE = {
    "merge_rural": {"prediction": 1010, "behavior": 40, "arbiter": 0,
                    "options": 40},
    "t_junction": {"prediction": 1155, "behavior": 66, "arbiter": 0,
                   "options": 66},
}


def test_rollouts_per_binding_and_none_after_a_veto(monkeypatch):
    # a_max=2 binds in the left turn, as in planbench's tjunction_comfort
    sc = load_scenario(T_JUNCTION_SCENARIO, overrides={"a_max": "2.0"})
    counts = dict.fromkeys(ROLLOUT_LAYERS, 0)
    vetoed = {}  # id -> option, kept alive so ids stay unique
    current = [None]
    late = {"courtesy": 0, "rollout": 0}

    def after_veto(layer):
        if layer == "arbiter" and id(current[0]) in vetoed:
            late["rollout"] += 1

    def tracked(fn):
        def wrapper(option, hyp, *args, **kwargs):
            current[0] = option
            if id(option) in vetoed:
                late["courtesy"] += 1
            term = fn(option, hyp, *args, **kwargs)
            if term == math.inf and hyp.probability > 0.0:
                vetoed[id(option)] = option
            return term
        return wrapper

    count_rollouts(monkeypatch, counts, after_veto)
    for name in ("merge_courtesy", "crossing_courtesy"):
        monkeypatch.setattr(arbiter, name, tracked(getattr(arbiter, name)))
    run(sc, SimConfig(duration=8.0))
    assert vetoed  # the episode does veto options
    assert late == {"courtesy": 0, "rollout": 0}
    assert counts == EXPECTED_ROLLOUTS


@pytest.mark.parametrize("scene", sorted(EXPECTED_DENSE))
def test_dense_rollouts_per_binding_and_options(monkeypatch, scene):
    sc = add_random_vehicles(load_scenario(SCENARIO_DIR / f"{scene}.json"), 40)
    counts = dict.fromkeys([*ROLLOUT_LAYERS, "options"], 0)
    count_rollouts(monkeypatch, counts)
    count_options(monkeypatch, counts)
    run(sc, SimConfig(duration=4.0))
    assert counts == EXPECTED_DENSE[scene]


def test_constrained_solves_and_their_iterations(monkeypatch):
    sc = load_scenario(T_JUNCTION_SCENARIO, overrides={"a_max": "2.0"},
                       seed=0)
    handle = optimizer.optimize
    solve = optimizer.solve
    reached = [False]
    counts = {"solves": 0, "iterations": 0}

    def minimize(*args, **kwargs):
        reached[0] = True
        return handle.minimize(*args, **kwargs)

    def counted(*args, **kwargs):
        reached[0] = False
        result = solve(*args, **kwargs)
        if reached[0]:
            counts["solves"] += 1
            counts["iterations"] += result.iterations
        return result

    monkeypatch.setattr(optimizer, "optimize",
                        types.SimpleNamespace(minimize=minimize))
    monkeypatch.setattr(optimizer, "solve", counted)
    run(sc, SimConfig())
    assert counts == EXPECTED_CONSTRAINED


@pytest.mark.parametrize("scene", sorted(EXPECTED_GRAPH_PAIRS))
def test_segment_pairs_per_graph_build(monkeypatch, scene):
    within = geometry._within
    count = [0]

    def counted(line, other, i, j):
        count[0] += len(i)
        return within(line, other, i, j)

    monkeypatch.setattr(geometry, "_within", counted)
    load_scenario(SCENARIO_DIR / f"{scene}.json")
    assert count[0] == EXPECTED_GRAPH_PAIRS[scene]
