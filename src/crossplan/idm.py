"""Intelligent Driver Model: acceleration law, curvature-adapted target
speed profiles and forward integration into longitudinal trajectories."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import HorizonMismatch, NonPositiveGap
from .geometry import Route

HARD_DECEL = 8.0           # m/s^2, clamp on collapsing gaps
VEHICLE_LENGTH = 5.0       # m, front-to-rear gap correction
PROFILE_STEP = 0.5         # m, speed-profile sampling
A_LAT_MAX = 2.0            # m/s^2, lateral comfort limit in curves
PROFILE_DECEL = 4.0        # m/s^2, braking ahead of curves
_KAPPA_EPS = 1e-6
_GAP_EPS = 1e-2
N_HORIZON = 201            # samples of every prediction and reference
DT = 0.05                  # s, their step: the planning grid


@dataclass(frozen=True)
class IdmParams:
    a_idm: float = 2.0     # max acceleration
    b: float = 4.0         # comfortable deceleration
    s0: float = 4.0        # standstill distance
    T: float = 2.5         # time gap
    delta: float = 4.0     # acceleration exponent

    def __post_init__(self):
        for name in ("a_idm", "b", "s0", "T", "delta"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"IdmParams.{name} must be positive")

    def desired_gap(self, v, dv):
        """The IDM's desired gap s* at speed v, closing on the leader at
        dv; floats or arrays."""
        return self.s0 + v * self.T + v * dv / (2.0 * math.sqrt(self.a_idm * self.b))


@dataclass(frozen=True)
class LongState:
    s: float
    v: float


class LongTrajectory:
    """Uniformly time-sampled longitudinal states [s, v]."""

    def __init__(self, s, v, dt: float, t0: float = 0.0):
        self.s = np.asarray(s, dtype=float)
        self.v = np.asarray(v, dtype=float)
        if len(self.s) < 2 or len(self.s) != len(self.v):
            raise ValueError("need >= 2 matching (s, v) samples")
        self.dt = float(dt)
        self.t0 = float(t0)
        self.s.setflags(write=False)
        self.v.setflags(write=False)

    def __len__(self) -> int:
        return len(self.s)

    def accelerations(self) -> np.ndarray:
        """Forward-difference accelerations, length N-1."""
        return np.diff(self.v) / self.dt

    def first_index_reaching(self, s_target: float) -> Optional[int]:
        idx = np.searchsorted(self.s, s_target, side="left")
        return int(idx) if idx < len(self.s) else None


def closer_leader(a: Optional[LongTrajectory],
                  b: LongTrajectory) -> LongTrajectory:
    """The binding one of two leaders: per sample the closer, `a` on ties,
    over the shorter horizon; `b` when `a` is None, and `a` itself when it
    binds at every one of its samples."""
    if a is None:
        return b
    n = min(len(a), len(b))
    pick_a = a.s[:n] <= b.s[:n]
    if n == len(a) and pick_a.all():
        return a
    return LongTrajectory(np.where(pick_a, a.s[:n], b.s[:n]),
                          np.where(pick_a, a.v[:n], b.v[:n]), dt=b.dt)


@dataclass(frozen=True)
class SpeedProfile:
    """Target speed over arc length on a uniform grid.

    Lookups run on Python floats: the grid is converted once here and `v`
    copied into a list, so `v` must not change after construction. Scalar
    arithmetic on Python floats gives the same IEEE results as on
    `np.float64`, several times faster.
    """

    s0_grid: float
    ds: float
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "s0_grid", float(self.s0_grid))
        object.__setattr__(self, "ds", float(self.ds))
        object.__setattr__(self, "_values",
                           np.asarray(self.v, dtype=float).tolist())

    def v_at(self, s: float) -> float:
        x = (float(s) - self.s0_grid) / self.ds
        values = self._values
        if x <= 0.0:
            return values[0]
        n = len(values) - 1
        if x >= n:
            return values[n]
        i = int(x)
        f = x - i
        return values[i] * (1.0 - f) + values[i + 1] * f


def idm_acceleration(v: float, v0: float, gap: Optional[float] = None,
                     dv: Optional[float] = None,
                     params: IdmParams = IdmParams()) -> float:
    """IDM acceleration; free road when no leader gap is given.

    Result is clamped to [-HARD_DECEL, a_idm].
    """
    free = params.a_idm * (1.0 - (v / v0) ** params.delta)
    if gap is None:
        a = free
    else:
        if gap <= 0.0:
            raise NonPositiveGap(f"gap={gap}")
        s_star = params.desired_gap(v, 0.0 if dv is None else dv)
        a = free - params.a_idm * (s_star / gap) ** 2
    return min(max(a, -HARD_DECEL), params.a_idm)


@lru_cache(maxsize=256)
def _curve_limit(route: Route) -> tuple[float, np.ndarray]:
    """(grid step, speed) of the curvature limit after the backward pass.

    Capping this at a speed limit gives the same values as running the
    pass on the capped speeds: sqrt(L*L + 2*PROFILE_DECEL*ds) >= L, and
    rounding is monotone.
    """
    s = route.centerline.grid(PROFILE_STEP)
    ds = s[1] - s[0]
    kappa = np.abs(route.centerline.curvature_at(s))
    v = np.sqrt(A_LAT_MAX / np.maximum(kappa, _KAPPA_EPS))
    for i in range(len(s) - 2, -1, -1):
        v[i] = min(v[i], math.sqrt(v[i + 1] ** 2 + 2.0 * PROFILE_DECEL * ds))
    v.setflags(write=False)
    return float(ds), v


def target_speed_profile(route: Route, v_limit: float) -> SpeedProfile:
    """Curvature-limited speed profile with a backward smoothing pass.

    Lateral acceleration stays within A_LAT_MAX, and the backward pass caps
    deceleration at PROFILE_DECEL so braking for curves starts early enough.
    """
    ds, v = _curve_limit(route)
    return SpeedProfile(s0_grid=0.0, ds=ds, v=np.minimum(v_limit, v))


def stop_target(route: Route, s: float) -> Optional[float]:
    """The intersection entry while the front of a vehicle at s has not
    reached it, where the vehicle stops; else (or without one) None."""
    s_stop = route.intersection_start
    if s_stop is None or s + 0.5 * VEHICLE_LENGTH >= s_stop:
        return None
    return s_stop


@lru_cache(maxsize=256)
def route_profile(route: Route) -> SpeedProfile:
    """Memoized speed profile at the route's own speed limit."""
    return target_speed_profile(route, route.speed_limit)


def rollout(start: LongState, profile: SpeedProfile,
            leader: Optional[LongTrajectory] = None,
            stop_at: Optional[float] = None,
            params: IdmParams = IdmParams(),
            n: int = N_HORIZON, dt: float = DT, t0: float = 0.0,
            vehicle_length: float = VEHICLE_LENGTH) -> LongTrajectory:
    """Explicit-Euler IDM integration over n samples.

    Per step the binding constraint is the candidate with the smallest gap:
    the real leader (front-to-rear gap) or a standing stop target at
    `stop_at` (the vehicle rests s0 before it). Speeds are clamped at 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if leader is not None and len(leader) < n:
        raise HorizonMismatch(f"leader has {len(leader)} samples, need {n}")
    # the loop runs on Python floats, read from lists rather than arrays:
    # the same IEEE operations as on np.float64, without numpy's
    # per-operation overhead
    if leader is not None:
        leader_s = leader.s[:n - 1].tolist()
        leader_v = leader.v[:n - 1].tolist()
    else:
        leader_s = leader_v = None
    if stop_at is not None:
        stop_at = float(stop_at)
    prof_s0, prof_v = profile.s0_grid, profile._values
    prof_inv_ds = 1.0 / profile.ds
    prof_n = len(prof_v) - 1
    a_idm, delta, s0_p, T = params.a_idm, params.delta, params.s0, params.T
    two_sqrt_ab = 2.0 * math.sqrt(params.a_idm * params.b)
    s_out = []
    v_out = []
    s = float(start.s)
    v = max(float(start.v), 0.0)
    for i in range(n - 1):
        s_out.append(s)
        v_out.append(v)
        # target speed lookup (uniform-grid linear interpolation)
        x = (s - prof_s0) * prof_inv_ds
        if x <= 0.0:
            v0 = prof_v[0]
        elif x >= prof_n:
            v0 = prof_v[prof_n]
        else:
            j = int(x)
            f = x - j
            v0 = prof_v[j] * (1.0 - f) + prof_v[j + 1] * f
        # binding gap: min over real leader and standing stop target
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
    s_out.append(s)
    v_out.append(v)
    return LongTrajectory(s_out, v_out, dt=dt, t0=t0)
