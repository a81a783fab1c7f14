"""Refinement of the selected reference into a Cartesian trajectory: a small
nonlinear program penalizing spatial deviation, acceleration, jerk and snap
subject to an absolute-acceleration constraint.

The cost and its gradient are evaluated in residual form (positions
differenced first, squared after), so they stay accurate far from the
origin. The cost is quadratic, with Hessian 2 Q_ff over the free positions;
Q_ff = L L^T is factored once per (n, dt, weights) and cached. The
unconstrained minimizer is reached by Newton steps from the reference on
that factor. When the acceleration constraint activates, the (convex)
problem is solved in whitened coordinates: the free positions are the
unconstrained optimum plus L^-T Z, so the objective is ||Z||^2 and each
constraint is a disk ||a*_k + m_k^T Z|| <= a_max, with m_k row k of
M = D_acc_f L^-T: a small second-order cone program (Lobo et al., LAA
1998). `_solve_disks` solves it exactly by a dual active-set method (in the
spirit of Goldfarb & Idnani, Math. Prog. 27, 1983) over the cached
G = M M^T. Everything is numpy.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooShort
from .geometry import Route
from .idm import LongTrajectory

N_OPT = 60
N_FIXED = 4  # leading positions pinned by the finite-difference stencils
FIRST_CENTRE = N_FIXED  # first stencil centre that is costed and constrained
MAX_ITER = 30  # active-set iterations, and Newton steps within each


def _solve_disks(C: np.ndarray, M: np.ndarray, G: np.ndarray, a_max: float,
                 max_iter: int) -> types.SimpleNamespace:
    """min ||Z||^2 subject to ||C_k + m_k^T Z|| <= a_max for every row k,
    with m_k row k of M and G = M M^T.

    With multipliers lam on a working set A, stationarity gives
    Z = -M_A^T diag(lam) a_A, so the accelerations on A are
    a_A = (I + G_AA diag(lam))^-1 C_A. Each iteration adds the peak of
    every contiguous run of violated rows, starting its multiplier at the
    one-row closed form (||a_k|| / a_max - 1) / G_kk, then runs Newton on
    phi = ||a_A||^2 - a_max^2 over lam (Jacobian
    -2 ((I + G_AA diag(lam))^-1 G_AA) o (a_A a_A^T), negative definite),
    dropping every multiplier that reaches <= 0. It stops when no row
    exceeds a_max^2 by more than 1e-9: with lam > 0 and phi = 0 on A, that
    meets the KKT conditions of this convex problem, so Z is the optimum.
    Returns Z as `x`, the iterations (feasibility checks) as `nit`,
    `success` and `message`."""
    a2 = a_max * a_max
    active = np.zeros(0, dtype=int)
    lam = np.zeros(0)
    Z = np.zeros((M.shape[1], 2))
    a = C
    for it in range(1, max_iter + 1):
        excess = (a * a).sum(axis=1) - a2
        success = bool(excess.max() <= 1e-9)
        if success or it == max_iter:
            break
        bad = np.concatenate(([False], excess > 1e-9, [False]))
        bad[1:-1][active] = False
        edges = np.flatnonzero(bad[1:] != bad[:-1])
        new = np.array([lo + int(np.argmax(excess[lo:hi]))
                        for lo, hi in zip(edges[::2], edges[1::2])], dtype=int)
        active = np.concatenate((active, new))
        lam = np.concatenate(
            (lam, (np.sqrt(excess[new] + a2) / a_max - 1.0) / G[new, new]))
        for step in range(max_iter + 1):
            G_A = G[active][:, active]
            # a_A and (I + G_AA diag(lam))^-1 G_AA from one factorization
            sol = np.linalg.solve(np.eye(len(active)) + G_A * lam,
                                  np.hstack((C[active], G_A)))
            a_A = sol[:, :2]
            phi = (a_A * a_A).sum(axis=1) - a2
            if step == max_iter or np.all(np.abs(phi) <= 1e-10):
                break
            lam = lam + np.linalg.solve(2.0 * sol[:, 2:] * (a_A @ a_A.T), phi)
            keep = lam > 0.0
            active, lam = active[keep], lam[keep]
        Z = -M[active].T @ (lam[:, None] * a_A)
        a = C + M @ Z
    message = (f"converged: {len(active)} active constraints after {it} "
               f"iterations" if success else
               f"iteration limit {max_iter}: {len(active)} active "
               f"constraints, largest excess {excess.max():.3g} m^2/s^4")
    return types.SimpleNamespace(x=Z, nit=it, success=success,
                                 message=message)


# The one way `solve` reaches the constrained solver: a stand-in bound here
# sees every constrained solve.
optimize = types.SimpleNamespace(minimize=_solve_disks)


@dataclass(frozen=True)
class OptimizerWeights:
    w_spatial: float = 1.0
    w_acc: float = 0.1
    w_jerk: float = 0.1
    w_snap: float = 0.1
    a_max: float = 5.0

    def __post_init__(self):
        if min(self.w_spatial, self.w_acc, self.w_jerk, self.w_snap) < 0:
            raise ValueError("weights must be >= 0")
        if self.a_max <= 0:
            raise ValueError("a_max must be positive")


@dataclass
class CartesianTrajectory:
    positions: np.ndarray  # (N, 2)
    dt: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    def __len__(self):
        return len(self.positions)


def _velocities(x: np.ndarray, dt: float) -> np.ndarray:
    """v_n = (x_{n+1} - x_{n-1}) / (2 dt) for n = 1..N-2."""
    return (x[2:] - x[:-2]) / (2.0 * dt)


def _accelerations(x: np.ndarray, dt: float) -> np.ndarray:
    """a_n = (x_{n+1} - 2 x_n + x_{n-1}) / dt^2 for n = 1..N-2."""
    return (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt**2


@dataclass
class NlpResult:
    trajectory: CartesianTrajectory
    converged: bool  # status is "closed_form" or "converged"
    iterations: int
    cost: float  # `assemble_cost` of the returned positions, for any status
    max_violation: float  # of ||a||^2 - a_max^2, m^2/s^4
    # how the solve ended: "closed_form" (the unconstrained optimum is
    # feasible), "converged", "braking_bypass" (emergency braking, smoothed
    # only), "not_converged" (the active-set solver stopped at its limit, or
    # its result exceeds a_max^2 by over 1e-6; see `message`) or
    # "reference_fallback" (the closed form or the active-set result cost
    # more than the reference, or a cost that is not finite)
    status: str
    message: str = ""  # the active-set solver's exit, or why it fell back


def reference_to_cartesian(reference: LongTrajectory, route: Route,
                           prefix: np.ndarray, d: float) -> CartesianTrajectory:
    """The optimizer's N_OPT-sample reference: the executed prefix, then
    reference samples 1..N_OPT-4 on the route (sample 0 is the prefix's last
    point), offset laterally by d at the first and decaying linearly to 0 at
    the last, so the reference stays continuous with the prefix."""
    free = N_OPT - N_FIXED
    if len(reference) < free + 1:
        raise TooShort(f"reference has {len(reference)} samples, need "
                       f"{free + 1}")
    decay = 1.0 - np.arange(free) / (free - 1)
    ref_xy = np.empty((N_OPT, 2))
    ref_xy[:N_FIXED] = prefix
    ref_xy[N_FIXED:] = route.centerline.points_at(
        reference.s[1:free + 1], d * decay, extrapolate=True)
    return CartesianTrajectory(ref_xy, dt=reference.dt)


@lru_cache(maxsize=16)
def _stencils(n: int, dt: float):
    """Acceleration, jerk and snap stencil matrices over all n positions:
    the residuals of the unit vectors, exact as small integers."""
    if n < 8:
        raise TooShort("need at least 8 samples")
    return _residuals(np.eye(n), dt)


@lru_cache(maxsize=16)
def _whitening(n: int, dt: float, w_spatial: float, w_acc: float,
               w_jerk: float, w_snap: float):
    """(L^-T, M, G) with Q_ff = L L^T, half the cost's Hessian over the
    free positions, M = D_acc_f L^-T, the map from whitened free variables
    to the accelerations at the constrained centres, and G = M M^T."""
    D_acc, D_jerk, D_snap = (D[:, N_FIXED:] for D in _stencils(n, dt))
    Qff = (w_spatial * np.eye(n - N_FIXED) + w_acc * D_acc.T @ D_acc
           + w_jerk * D_jerk.T @ D_jerk + w_snap * D_snap.T @ D_snap)
    L = np.linalg.cholesky(Qff)
    Linv_T = np.linalg.inv(L).T
    M = D_acc @ Linv_T
    return Linv_T, M, M @ M.T


def _residuals(x: np.ndarray, dt: float):
    """Acceleration, jerk and snap residuals at their stencil centres, from
    repeated differences of the positions: differencing before scaling and
    squaring keeps them exact to rounding of the differences, wherever the
    trajectory lies. With c = FIRST_CENTRE: acc (1,-2,1)/dt^2 at n=c..N-2;
    jerk (-1,2,0,-2,1)/(2 dt^3) and snap (1,-4,6,-4,1)/dt^4 at n=c..N-3
    (both need x_{n+2})."""
    n, c = len(x), FIRST_CENTRE
    d2 = np.diff(x, n=2, axis=0)  # d2[k] centred at k+1
    d3 = np.diff(d2, axis=0)      # d3[k] centred at k+1.5
    d4 = np.diff(d3, axis=0)      # d4[k] centred at k+2
    acc = d2[c - 1:n - 2] / dt**2
    jerk = (d3[c - 2:n - 4] + d3[c - 1:n - 3]) / (2.0 * dt**3)
    snap = d4[c - 2:n - 4] / dt**4
    return acc, jerk, snap


def assemble_cost(positions: np.ndarray, reference: np.ndarray,
                  weights: OptimizerWeights, dt: float):
    """Cost and analytic gradient (w.r.t. every position, fixed ones
    included; the solver masks the first four), as weighted sums of squared
    stencil residuals."""
    x = np.asarray(positions, dtype=float)
    ref = np.asarray(reference, dtype=float)
    dev = x[N_FIXED:] - ref[N_FIXED:]
    cost = weights.w_spatial * float((dev**2).sum())
    half_grad = np.zeros_like(x)
    half_grad[N_FIXED:] = weights.w_spatial * dev
    for w, D, r in zip((weights.w_acc, weights.w_jerk, weights.w_snap),
                       _stencils(len(x), dt), _residuals(x, dt)):
        cost += w * float((r**2).sum())
        half_grad += w * (D.T @ r)
    return cost, 2.0 * half_grad


def solve(reference: CartesianTrajectory, prefix: np.ndarray,
          weights: OptimizerWeights = OptimizerWeights()) -> NlpResult:
    """Minimize the comfort cost over the free positions subject to
    ||a_n|| <= a_max, keeping the four-point prefix bitwise fixed.

    The unconstrained quadratic optimum x* is computed first, by three
    Newton steps from the reference (with the prefix) on the cached factor
    Q_ff = L L^T. Only when x* violates the acceleration constraint does
    the active-set solver `_solve_disks` run, through the module handle
    `optimize`, on whitened variables Z with free positions x* + L^-T Z:
    the objective is ||Z||^2 (the cost above J(x*)), the accelerations are
    affine in Z, and Z = 0 is x* itself.
    Every solve ends in one tail, which recomputes the cost with
    `assemble_cost` (the braking bypass included) and returns the reference
    in place of any other result that costs more than it.

    `status` on the result says how the solve ended; `converged` is true
    for "closed_form" and for "converged" (the active-set solver met every
    constraint to 1e-9 within `MAX_ITER` iterations and the result is
    feasible to 1e-6 m^2/s^4).
    """
    ref = np.array(reference.positions, dtype=float)
    prefix = np.asarray(prefix, dtype=float)
    if prefix.shape != (N_FIXED, 2):
        raise ValueError("prefix must be 4 positions")
    dt = reference.dt
    Linv_T, M, G = _whitening(len(ref), dt, weights.w_spatial, weights.w_acc,
                              weights.w_jerk, weights.w_snap)

    # Newton steps from the reference: with g the cost's gradient, the step
    # -Q_ff^-1 g / 2 is -L^-T z with z = L^-1 g / 2. Each step is exact to
    # about cond(Q_ff) eps of its own length, and the first is as long as
    # the reference is far from the optimum, not from the origin; two more
    # take what is left to rounding.
    x_ref = ref.copy()
    x_ref[:N_FIXED] = prefix
    cost_ref, grad = assemble_cost(x_ref, ref, weights, dt)
    x = x_ref.copy()
    for step in range(3):
        if step:
            _, grad = assemble_cost(x, ref, weights, dt)
        z = 0.5 * (Linv_T.T @ grad[N_FIXED:])
        x[N_FIXED:] -= Linv_T @ z

    a2max = weights.a_max**2
    viol = _max_violation(x, dt, a2max)
    x_out, iterations, message, status = x, 1, "", "closed_form"
    if viol > 1e-9:
        # Emergency braking: car following decelerates up to HARD_DECEL to
        # keep the gap, deliberately above the comfort limit. Forcing
        # ||a|| <= a_max would stretch the braking distance and override
        # safety, so such references get the unconstrained smoothing only;
        # lateral (cornering) demand still goes to the solver.
        v_mid = _velocities(x_ref, dt)
        a_mid = _accelerations(x_ref, dt)
        speed = np.maximum(np.hypot(v_mid[:, 0], v_mid[:, 1]), 1e-9)
        tangential = (a_mid * v_mid).sum(axis=1) / speed
        if float(tangential.min()) < -(weights.a_max + 0.25):
            status = "braking_bypass"
        else:
            res = optimize.minimize(
                _accelerations(x, dt)[FIRST_CENTRE - 1:], M, G,
                weights.a_max, MAX_ITER)
            x_out = x.copy()
            x_out[N_FIXED:] += Linv_T @ res.x
            iterations, message = int(res.nit), res.message
            status = "converged" if res.success else "not_converged"

    # one tail: the cost recomputed on the result, which is never worse than
    # the plain reference (but for the bypass; a NaN cost fails the guard),
    # and the violation measured again only on positions not measured above
    cost, _ = assemble_cost(x_out, ref, weights, dt)
    if status != "braking_bypass" and not cost <= cost_ref + 1e-9:
        x_out, cost, status = x_ref, cost_ref, "reference_fallback"
        message = message or "closed form above the reference cost"
    if x_out is not x:
        viol = _max_violation(x_out, dt, a2max)
    if status == "converged" and viol > 1e-6:
        status = "not_converged"
    return NlpResult(CartesianTrajectory(x_out, dt=dt),
                     converged=status in ("closed_form", "converged"),
                     iterations=iterations, cost=cost,
                     max_violation=max(viol, 0.0), status=status,
                     message=message)


def _max_violation(x: np.ndarray, dt: float, a2max: float) -> float:
    a = _accelerations(x, dt)[FIRST_CENTRE - 1:]  # the constrained rows
    return float(((a**2).sum(axis=1) - a2max).max())
