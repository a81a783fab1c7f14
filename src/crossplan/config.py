"""One place for every tunable parameter, overridable by key.

Each layer's parameters live in that layer's dataclass; `PlannerParams`
composes them and owns only the replanning period and the merge-option
switch. An override key names a field of exactly one of them. The planning
grid is fixed: `idm.N_HORIZON`, `idm.DT` and `optimizer.N_OPT`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .arbiter import ArbiterParams
from .idm import DT, IdmParams
from .optimizer import OptimizerWeights
from .prediction import PredictorParams


@dataclass(frozen=True)
class PlannerParams:
    idm: IdmParams = field(default_factory=IdmParams)
    predictor: PredictorParams = field(default_factory=PredictorParams)
    arbiter: ArbiterParams = field(default_factory=ArbiterParams)
    optimizer: OptimizerWeights = field(default_factory=OptimizerWeights)
    dt_replan: float = 0.2  # s, a whole number of planning steps
    use_virtual_leader: bool = True

    def __post_init__(self):
        if not 0 < self.dt_replan < math.inf:  # NaN included
            raise ValueError("dt_replan must be positive and finite")
        steps = self.replan_steps
        if steps < 1 or abs(steps * DT - self.dt_replan) > 1e-9:
            raise ValueError(f"dt_replan ({self.dt_replan}) must be an integer "
                             f"multiple of the planning step ({DT})")

    @property
    def replan_steps(self) -> int:
        """Planning steps per replanning cycle."""
        return int(round(self.dt_replan / DT))

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
            changes.setdefault(owner, {})[key] = _coerce(
                key, getattr(target, key), value)
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


def _coerce(key: str, current, value):
    """`value` as the type of the key's current value; every parameter is
    a bool or a finite float, and a bool is not a float."""
    if isinstance(current, bool):
        return _as_bool(value)
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return number


def _as_bool(value) -> bool:
    """A bool, or text that spells one; a number (JSON 1 or 0) is not."""
    if isinstance(value, bool):
        return value
    text = value.strip().lower() if isinstance(value, str) else None
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {value!r}")
