"""Checks of the planner's outputs, written apart from the planner.

Every check returns a list of problems (empty when the check passes), so a
caller can both count failures and say what broke. Nothing here calls the
planner's own car-following or optimizer code: the IDM integrator and the
comfort-cost stencils are re-derived from the model definitions.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

# --- Intelligent Driver Model -------------------------------------------------

HARD_DECEL = 8.0    # m/s^2, the model's emergency deceleration limit
GAP_FLOOR = 1e-2    # m, collapsing gaps are floored here before dividing
ROLLOUT_ATOL = 1e-6  # m and m/s against the reference integrator
ACCEL_SLACK = 1e-9   # m/s^2 on the [-HARD_DECEL, a_idm] band


def idm_reference(s_init: float, v_init: float, target, leader_s, leader_v,
                  stop_at, idm, n: int, dt: float, length: float):
    """Explicit-Euler IDM integration, one plain loop per sample.

    `target(s)` is the desired speed at arc length s. The binding gap is the
    smaller of the leader's front-to-rear gap and the distance to a standing
    stop target; the leader wins a tie. Speeds never go negative.
    """
    s_out = np.empty(n)
    v_out = np.empty(n)
    s, v = float(s_init), max(float(v_init), 0.0)
    for i in range(n):
        s_out[i], v_out[i] = s, v
        if i == n - 1:
            break
        binding = None
        if leader_s is not None:
            binding = (max(leader_s[i] - s - length, GAP_FLOOR),
                       v - leader_v[i])
        if stop_at is not None:
            stop = (max(stop_at - s, GAP_FLOOR), v)
            if binding is None or stop[0] < binding[0]:
                binding = stop
        a = idm.a_idm * (1.0 - (v / target(s)) ** idm.delta)
        if binding is not None:
            gap, dv = binding
            desired = idm.s0 + v * idm.T + v * dv / (2.0 * math.sqrt(idm.a_idm * idm.b))
            a -= idm.a_idm * (desired / gap) ** 2
        a = min(max(a, -HARD_DECEL), idm.a_idm)
        s += v * dt
        v = max(v + a * dt, 0.0)
    return s_out, v_out


def profile_lookup(s0_grid: float, ds: float, v):
    """Target speed over arc length: linear between samples, held constant
    beyond both ends."""
    grid = s0_grid + ds * np.arange(len(v))
    v = np.asarray(v, dtype=float)
    return lambda s: float(np.interp(s, grid, v))


def check_rollout(call: dict, traj) -> list[str]:
    """`call` holds the arguments of one `rollout` call by name; `traj` is
    the trajectory it returned."""
    problems = []
    idm = call["params"]
    n, dt = int(call["n"]), float(call["dt"])
    s, v = np.asarray(traj.s), np.asarray(traj.v)
    if len(s) != n or len(v) != n:
        return [f"rollout has {len(s)} samples, asked for {n}"]
    leader = call["leader"]
    prof = call["profile"]
    want_s, want_v = idm_reference(
        call["start"].s, call["start"].v,
        profile_lookup(prof.s0_grid, prof.ds, prof.v),
        None if leader is None else np.asarray(leader.s),
        None if leader is None else np.asarray(leader.v),
        call["stop_at"], idm, n, dt, float(call["vehicle_length"]))
    err = max(float(np.max(np.abs(s - want_s))),
              float(np.max(np.abs(v - want_v))))
    if not err <= ROLLOUT_ATOL:
        problems.append(f"rollout differs from the reference integrator "
                        f"by {err:.3e}")
    if float(v.min()) < 0.0:
        problems.append(f"negative speed {float(v.min()):.3e} m/s")
    acc = np.diff(v) / dt
    if acc.size and (float(acc.min()) < -HARD_DECEL - ACCEL_SLACK
                     or float(acc.max()) > idm.a_idm + ACCEL_SLACK):
        problems.append(f"acceleration {float(acc.min()):.3f}.."
                        f"{float(acc.max()):.3f} outside "
                        f"[-{HARD_DECEL}, {idm.a_idm}] m/s^2")
    return problems


# --- trajectory optimizer -----------------------------------------------------

N_PREFIX = 4           # executed positions the replanned trajectory keeps
COST_RTOL = 1e-9       # on the cost comparison
A_MAX_SLACK = 1e-6     # m^2/s^4 on ||a||^2, the solver's feasibility slack
STATIONARY_M = 1e-9    # m: closed-form results are optimal to a nanometre

# (offsets, coefficients, time power, first centre, last centre from the end)
# acceleration (1,-2,1)/dt^2 at n = 4..N-2; jerk (-1,2,0,-2,1)/(2 dt^3) and
# snap (1,-4,6,-4,1)/dt^4 at n = 4..N-3
_STENCILS = {
    "acc": ((-1, 0, 1), (1.0, -2.0, 1.0), 2, 4, 2),
    "jerk": ((-2, -1, 0, 1, 2), (-0.5, 1.0, 0.0, -1.0, 0.5), 3, 4, 3),
    "snap": ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0), 4, 4, 3),
}


def _apply(x, offsets, coefs, power, dt, lo, hi):
    """Stencil applied at centres lo..hi-1 of x, shape (hi-lo, 2)."""
    out = np.zeros((hi - lo, x.shape[1]))
    for off, c in zip(offsets, coefs):
        if c:
            out += c * x[lo + off:hi + off]
    return out / dt**power


def comfort_cost(x, ref, weights, dt):
    """(cost, gradient, curvature) of the smoothing objective: spatial
    deviation of the free samples plus weighted squared acceleration, jerk
    and snap. `curvature` bounds the Hessian's diagonal, so gradient /
    curvature is how far (in metres) a sample is from its optimum.

    Differences are taken of the positions first and squared after, so the
    cost stays accurate for positions far from the origin."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    n = len(x)
    dev = x[N_PREFIX:] - ref[N_PREFIX:]
    cost = weights.w_spatial * float((dev**2).sum())
    grad = np.zeros_like(x)
    grad[N_PREFIX:] = 2.0 * weights.w_spatial * dev
    curvature = 2.0 * weights.w_spatial
    for name, (offsets, coefs, power, lo, back) in _STENCILS.items():
        w = getattr(weights, f"w_{name}")
        hi = n - back + 1
        r = _apply(x, offsets, coefs, power, dt, lo, hi)
        cost += w * float((r**2).sum())
        g = np.zeros_like(x)
        for off, c in zip(offsets, coefs):
            if c:
                g[lo + off:hi + off] += 2.0 * w * c * r / dt**power
        grad += g
        curvature += 2.0 * w * sum(c * c for c in coefs) / dt**(2 * power)
    return cost, grad, curvature


def accel_norms(x, dt):
    """||a_n|| at the constrained centres n = 4..N-2."""
    x = np.asarray(x, dtype=float)
    a = (x[N_PREFIX + 1:] - 2.0 * x[N_PREFIX:-1] + x[N_PREFIX - 1:-2]) / dt**2
    return np.hypot(a[:, 0], a[:, 1])


def check_solve(reference, prefix, weights, result, closed_form: bool) -> list[str]:
    """One `optimizer.solve` call: prefix kept bitwise, a converged result
    feasible, the cost never above the reference's, and the closed-form
    result stationary under the independent cost."""
    problems = []
    ref = np.asarray(reference.positions, dtype=float)
    dt = float(reference.dt)
    x = np.asarray(result.trajectory.positions, dtype=float)
    prefix = np.asarray(prefix, dtype=float)
    if x.shape != ref.shape:
        return [f"solution shape {x.shape} != reference {ref.shape}"]
    if x[:N_PREFIX].tobytes() != prefix.tobytes():
        problems.append("prefix positions changed")
    if result.converged:
        worst = float(np.max(accel_norms(x, dt)))
        if worst**2 > weights.a_max**2 + A_MAX_SLACK:
            problems.append(f"converged with ||a|| = {worst:.4f} > "
                            f"a_max = {weights.a_max}")
    cost, grad, curvature = comfort_cost(x, ref, weights, dt)
    baseline = ref.copy()
    baseline[:N_PREFIX] = prefix
    cost_ref, _, _ = comfort_cost(baseline, ref, weights, dt)
    if cost > cost_ref * (1.0 + COST_RTOL) + COST_RTOL:
        problems.append(f"cost {cost:.6g} above the reference's {cost_ref:.6g}")
    if closed_form:
        off = float(np.max(np.abs(grad[N_PREFIX:]))) / curvature
        if not off <= STATIONARY_M:
            problems.append(f"closed-form result not stationary: gradient "
                            f"worth {off:.3e} m")
    return problems


# --- traces -------------------------------------------------------------------

def record_key(rec) -> tuple:
    """Everything a trace record holds except the wall-clock `plan_ms`."""
    return (rec.t, rec.ego_s, rec.ego_x, rec.ego_y, rec.ego_v, rec.ego_a_lon,
            rec.ego_a_lat, rec.ego_a_abs, rec.selected,
            tuple(sorted(rec.option_costs.items())),
            tuple(sorted(rec.vehicles.items())), rec.converged)


def replan_ticks(trace) -> list[int]:
    """Record indices where a planning cycle ran."""
    return [i for i, r in enumerate(trace) if r.plan_ms > 0.0]


def cycle_mismatches(ref_keys: list, ticks: list[int], trace) -> set[int]:
    """Cycles (by index into `ticks`) whose records differ from the first
    repeat's. A cycle owns the records from its tick to the next tick."""
    if len(trace) != len(ref_keys) or replan_ticks(trace) != ticks:
        return set(range(len(ticks)))
    bad = set()
    for i, (want, rec) in enumerate(zip(ref_keys, trace)):
        if record_key(rec) != want:
            bad.add(max(bisect_right(ticks, i) - 1, 0))
    return bad


def insane_cycles(trace, ticks: list[int]) -> set[int]:
    """Cycles with a non-finite ego state or a non-finite cycle time."""
    bad = set()
    for c, i in enumerate(ticks):
        end = ticks[c + 1] if c + 1 < len(ticks) else len(trace)
        for rec in trace[i:end]:
            vals = (rec.ego_x, rec.ego_y, rec.ego_v, rec.ego_s, rec.plan_ms)
            if not all(math.isfinite(x) for x in vals):
                bad.add(c)
                break
    return bad


def check_plan_time(trace, wall_s: float) -> list[str]:
    """The planner's own cycle timer cannot exceed the episode's wall time."""
    total = sum(r.plan_ms for r in trace) / 1e3
    if total > wall_s:
        return [f"sum of plan_ms {total:.4f} s exceeds run() wall {wall_s:.4f} s"]
    return []


# --- paper outcomes -----------------------------------------------------------

OUTCOME_SHARE = 0.9  # the acceptance suite asks 18 of 20 episodes
MERGE_MIN_SPEED = 12.0  # m/s


def needed(episodes: int) -> int:
    return math.ceil(OUTCOME_SHARE * episodes - 1e-9)


def fluent_merge(trace, collisions: list) -> bool:
    """merge_rural: the ego keeps above 12 m/s and the audit is empty."""
    return min(r.ego_v for r in trace) > MERGE_MIN_SPEED and not collisions


def merges_ahead(trace, zone, ego_route: str, other_route: str,
                 other: str) -> bool:
    """t_junction: the ego passes the merge point before vehicle `other`
    reaches it on its own route."""
    s_ego = np.array([r.ego_s for r in trace])
    t = np.array([r.t for r in trace])
    if s_ego[-1] < zone.start[ego_route]:
        return False
    t_ego = float(np.interp(zone.start[ego_route], s_ego, t))
    s_other = np.array([r.vehicles[other][0] for r in trace])
    reached = np.nonzero(s_other >= zone.start[other_route])[0]
    if len(reached) == 0:
        return False
    return t_ego < float(t[reached[0]])


def check_outcomes(passed: list[bool], what: str) -> list[str]:
    need = needed(len(passed))
    if sum(passed) < need:
        return [f"{what} in {sum(passed)} of {len(passed)} episodes, "
                f"need {need}"]
    return []


# --- comfort and progress ----------------------------------------------------

def path_length(trace) -> float:
    xy = np.array([[r.ego_x, r.ego_y] for r in trace])
    return float(np.hypot(*np.diff(xy, axis=0).T).sum())


def jerk_squares(trace, dt: float) -> np.ndarray:
    """||third difference of the executed position / dt^3||^2 per sample."""
    xy = np.array([[r.ego_x, r.ego_y] for r in trace])
    j = (xy[3:] - 3.0 * xy[2:-1] + 3.0 * xy[1:-2] - xy[:-3]) / dt**3
    return (j**2).sum(axis=1)
