"""One place for every tunable parameter, overridable by key.

Each layer's parameters live in that layer's dataclass; `PlannerParams`
composes them and owns only the horizons, the replanning period and the
merge-option switch. An override key names a field of exactly one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .arbiter import ArbiterParams
from .idm import N_HORIZON, IdmParams
from .optimizer import N_OPT, OptimizerWeights
from .prediction import PredictorParams


@dataclass(frozen=True)
class PlannerParams:
    idm: IdmParams = field(default_factory=IdmParams)
    predictor: PredictorParams = field(default_factory=PredictorParams)
    arbiter: ArbiterParams = field(default_factory=ArbiterParams)
    optimizer: OptimizerWeights = field(default_factory=OptimizerWeights)
    # horizons (samples of the simulation step) and replanning period
    n_ref: int = N_HORIZON
    n_opt: int = N_OPT
    dt_replan: float = 0.2
    use_virtual_leader: bool = True

    def __post_init__(self):
        if self.n_opt < 8:
            raise ValueError("n_opt must be >= 8 (stencil minimum)")
        if self.n_ref < self.n_opt - 3:
            raise ValueError("n_ref must be >= n_opt - 3 so the reference "
                             "covers every optimized sample")
        if not 0 < self.dt_replan < math.inf:  # NaN included
            raise ValueError("dt_replan must be positive and finite")

    def with_overrides(self, overrides: dict) -> "PlannerParams":
        """Apply key=value overrides, each to the dataclass that owns the
        key; unknown keys raise ValueError."""
        owners = _owners(self)
        changes: dict = {}  # owning field (None: this object) -> {key: value}
        for key, value in overrides.items():
            if key not in owners:
                raise ValueError(f"unknown parameter {key!r}")
            owner = owners[key]
            target = self if owner is None else getattr(self, owner)
            changes.setdefault(owner, {})[key] = _coerce(getattr(target, key),
                                                         value)
        own = changes.pop(None, {})
        for layer, clean in changes.items():
            own[layer] = replace(getattr(self, layer), **clean)
        return replace(self, **own)


def _owners(params: PlannerParams) -> dict:
    """Override key -> name of the layer field that owns it (None for the
    planner's own fields)."""
    owners = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if is_dataclass(value):
            owners.update((g.name, f.name) for g in fields(value))
        else:
            owners[f.name] = None
    return owners


def _coerce(current, value):
    if isinstance(current, bool):
        return _as_bool(value)
    if isinstance(current, int):
        return int(value)
    return float(value)


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {value!r}")
