"""Scenario inputs of each workload, generated from the workload seed.

A workload is a fixed list of episodes. Each episode is one scenario
dictionary (map, vehicles, agent seed, parameter overrides) that the planner
receives through `scenario_from_dict`; the same workload seed always gives
the same dictionaries.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass


from repo import SCENARIOS

# at least 1000 cycles per workload, so cycle_ms_p99 has ten beyond it, and
# ten episodes, so the paper outcomes are checked at 9 of 10
MERGE_EPISODES = 10      # x 120 cycles
COMFORT_EPISODES = 10    # x 150 cycles

COMFORT_A_MAX = 2.0  # m/s^2: binds in the left turn, so SLSQP runs


@dataclass(frozen=True)
class Episode:
    name: str
    raw: dict  # scenario dictionary, agent seed included


def _bundled(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _agent_seed(seed: int, count: int, k: int) -> int:
    """Disjoint agent-seed ranges per workload seed: seed 0 uses 0..count-1,
    the agent seeds of the acceptance suite's scenario reproductions."""
    return seed * count + k


def merge_sparse(seed: int) -> list[Episode]:
    base = _bundled("merge_rural")
    out = []
    for k in range(MERGE_EPISODES):
        raw = copy.deepcopy(base)
        raw["seed"] = _agent_seed(seed, MERGE_EPISODES, k)
        out.append(Episode(f"merge_rural/agents{raw['seed']}", raw))
    return out


def tjunction_comfort(seed: int) -> list[Episode]:
    base = _bundled("t_junction")
    out = []
    for k in range(COMFORT_EPISODES):
        raw = copy.deepcopy(base)
        raw["seed"] = _agent_seed(seed, COMFORT_EPISODES, k)
        raw.setdefault("params", {})["a_max"] = COMFORT_A_MAX
        out.append(Episode(f"t_junction_comfort/agents{raw['seed']}", raw))
    return out


@dataclass(frozen=True)
class Workload:
    episodes: object  # workload seed -> list[Episode]
    rounds: int       # times every episode runs in a measured run


# merge_sparse has a light tail (p99 about 1.9 x p50), so a cycle slowed in
# one repeat reaches its p99 unless a third repeat outvotes it
WORKLOADS = {
    "merge_sparse": Workload(merge_sparse, rounds=3),
    "tjunction_comfort": Workload(tjunction_comfort, rounds=2),
}
