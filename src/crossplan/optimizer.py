"""Refinement of the selected reference into a Cartesian trajectory: a small
nonlinear program penalizing spatial deviation, acceleration, jerk and snap
subject to an absolute-acceleration constraint.

The cost and its gradient are evaluated in residual form (positions
differenced first, squared after), so they stay accurate far from the
origin. The cost is quadratic, with Hessian 2 Q_ff over the free positions;
Q_ff = L L^T is factored once per (n, dt, weights) and cached. The
unconstrained minimizer is reached by Newton steps from the reference on
that factor. When the acceleration constraint activates, the (convex)
problem goes to SQP (SLSQP) in whitened coordinates: the free positions are
the unconstrained optimum plus s L^-T z, with s a scalar, so the objective
is z.z and the quasi-Newton model starts from the exact Hessian.

Everything but SLSQP is numpy. scipy is imported at the first solve that
calls SLSQP, through the module handle `optimize`, so a process whose
solves all end in closed form or the braking bypass never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooShort
from .geometry import Route
from .idm import LongTrajectory

N_OPT = 60
N_FIXED = 4  # leading positions pinned by the finite-difference stencils
SQP_MAX_ITER = 100


class _LazyOptimize:
    """Stands for `scipy.optimize`, which it imports at the first
    `minimize` call. Every SLSQP run goes through the module's `optimize`
    handle, so a stand-in bound there sees all of them."""

    @staticmethod
    def minimize(*args, **kwargs):
        from scipy.optimize import minimize
        return minimize(*args, **kwargs)


optimize = _LazyOptimize()


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

    def accelerations(self) -> np.ndarray:
        """Central-stencil accelerations a_n for n = 1..N-2, shape (N-2, 2)."""
        return _accelerations(self.positions, self.dt)


def _velocities(x: np.ndarray, dt: float) -> np.ndarray:
    """v_n = (x_{n+1} - x_{n-1}) / (2 dt) for n = 1..N-2."""
    return (x[2:] - x[:-2]) / (2.0 * dt)


def _accelerations(x: np.ndarray, dt: float) -> np.ndarray:
    """a_n = (x_{n+1} - 2 x_n + x_{n-1}) / dt^2 for n = 1..N-2."""
    return (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt**2


@dataclass
class NlpResult:
    trajectory: CartesianTrajectory
    converged: bool
    iterations: int
    cost: float
    max_violation: float  # of ||a||^2 - a_max^2, m^2/s^4
    # how the solve ended: "closed_form" (the unconstrained optimum is
    # feasible), "converged", "braking_bypass" (emergency braking, smoothed
    # only), "not_converged" (SLSQP stopped short; see `message`) or
    # "reference_fallback" (the closed form's or SLSQP's result cost more
    # than the reference)
    status: str
    message: str = ""  # SLSQP's exit code and message, or why it fell back


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
    """(L^-T, M) with Q_ff = L L^T, half the cost's Hessian over the free
    positions, and M = D_acc_f L^-T, the map from whitened free variables
    to the accelerations at the constrained centres."""
    D_acc, D_jerk, D_snap = (D[:, N_FIXED:] for D in _stencils(n, dt))
    Qff = (w_spatial * np.eye(n - N_FIXED) + w_acc * D_acc.T @ D_acc
           + w_jerk * D_jerk.T @ D_jerk + w_snap * D_snap.T @ D_snap)
    L = np.linalg.cholesky(Qff)
    Linv_T = np.linalg.inv(L).T
    return Linv_T, D_acc @ Linv_T


def _residuals(x: np.ndarray, dt: float):
    """Acceleration, jerk and snap residuals at their stencil centres, from
    repeated differences of the positions: differencing before scaling and
    squaring keeps them exact to rounding of the differences, wherever the
    trajectory lies. acc (1,-2,1)/dt^2 at n=4..N-2; jerk (-1,2,0,-2,1)/(2 dt^3)
    and snap (1,-4,6,-4,1)/dt^4 at n=4..N-3 (both need x_{n+2})."""
    n = len(x)
    d2 = np.diff(x, n=2, axis=0)  # d2[k] centred at k+1
    d3 = np.diff(d2, axis=0)      # d3[k] centred at k+1.5
    d4 = np.diff(d3, axis=0)      # d4[k] centred at k+2
    acc = d2[N_FIXED - 1:n - 2] / dt**2
    jerk = (d3[2:n - 4] + d3[3:n - 3]) / (2.0 * dt**3)
    snap = d4[2:n - 4] / dt**4
    return acc, jerk, snap


def assemble_cost(positions: np.ndarray, reference: np.ndarray,
                  weights: OptimizerWeights, dt: float):
    """Cost and analytic gradient (w.r.t. every position, fixed ones
    included; the solver masks the first four), as weighted sums of squared
    stencil residuals."""
    x = np.asarray(positions, dtype=float)
    ref = np.asarray(reference, dtype=float)
    n = len(x)
    if n < 8:
        raise TooShort("need at least 8 samples")
    dev = x[N_FIXED:] - ref[N_FIXED:]
    cost = weights.w_spatial * float((dev**2).sum())
    half_grad = np.zeros_like(x)
    half_grad[N_FIXED:] = weights.w_spatial * dev
    for w, D, r in zip((weights.w_acc, weights.w_jerk, weights.w_snap),
                       _stencils(n, dt), _residuals(x, dt)):
        cost += w * float((r**2).sum())
        half_grad += w * (D.T @ r)
    return cost, 2.0 * half_grad


def solve(reference: CartesianTrajectory, prefix: np.ndarray,
          weights: OptimizerWeights = OptimizerWeights()) -> NlpResult:
    """Minimize the comfort cost over the free positions subject to
    ||a_n|| <= a_max, keeping the four-point prefix bitwise fixed.

    The unconstrained quadratic optimum x* is computed first, by three
    Newton steps from the reference (with the prefix) on the cached factor
    Q_ff = L L^T; SQP (SLSQP) runs only when x* violates the acceleration
    constraint, and only such a solve imports scipy (the first one in a
    process pays that import). SLSQP works on whitened variables z, with
    free positions x* + s L^-T z: the objective is z.z (the cost above
    J(x*), over s^2), the accelerations are affine in z, and the start
    z = 0 is x* itself.
    Either result is returned only when its cost, recomputed by
    `assemble_cost`, is no more than the reference's.

    `status` on the result says how the solve ended; `converged` is true
    for "closed_form" and for "converged" (SLSQP succeeded and the result
    is feasible to 1e-6 m^2/s^4).
    """
    ref = np.array(reference.positions, dtype=float)
    prefix = np.asarray(prefix, dtype=float)
    if prefix.shape != (N_FIXED, 2):
        raise ValueError("prefix must be 4 positions")
    n = len(ref)
    dt = reference.dt
    Linv_T, M = _whitening(n, dt, weights.w_spatial, weights.w_acc,
                           weights.w_jerk, weights.w_snap)

    # Newton steps from the reference: with g the cost's gradient, the step
    # -Q_ff^-1 g / 2 is -L^-T z with z = L^-1 g / 2, and lowers the cost by
    # z.z. Each step is exact to about cond(Q_ff) eps of its own length, and
    # the first is as long as the reference is far from the optimum, not
    # from the origin; two more take what is left to rounding.
    x_ref = ref.copy()
    x_ref[:N_FIXED] = prefix
    cost_ref, grad = assemble_cost(x_ref, ref, weights, dt)
    x = x_ref.copy()
    for step in range(3):
        if step:
            cost, grad = assemble_cost(x, ref, weights, dt)
        z = 0.5 * (Linv_T.T @ grad[N_FIXED:])
        x[N_FIXED:] -= Linv_T @ z
    cost -= float((z**2).sum())  # the last step's decrease

    a2max = weights.a_max**2

    def fallback(iterations: int, message: str) -> NlpResult:
        # never return something worse than the plain reference
        viol_ref = _max_violation(x_ref, dt, a2max)
        return NlpResult(CartesianTrajectory(x_ref, dt=dt),
                         converged=False, iterations=iterations,
                         cost=cost_ref, max_violation=max(viol_ref, 0.0),
                         status="reference_fallback", message=message)

    viol = _max_violation(x, dt, a2max)
    if viol <= 1e-9:
        # judged on the recomputed cost: the Newton estimate goes wrong
        # exactly when the factor does
        cost_cf, _ = assemble_cost(x, ref, weights, dt)
        if not cost_cf <= cost_ref + 1e-9:
            return fallback(1, "closed form above the reference cost")
        return NlpResult(CartesianTrajectory(x, dt=dt),
                         converged=True, iterations=1, cost=cost_cf,
                         max_violation=max(viol, 0.0), status="closed_form")

    # Emergency braking: car following decelerates up to HARD_DECEL to keep
    # the gap, deliberately above the comfort limit. Forcing ||a|| <= a_max
    # would stretch the braking distance and override safety, so such
    # references get the unconstrained smoothing only. Lateral (cornering)
    # demand is untouched by this guard and still goes through the SQP.
    v_mid = _velocities(x_ref, dt)
    a_mid = _accelerations(x_ref, dt)
    speed = np.maximum(np.hypot(v_mid[:, 0], v_mid[:, 1]), 1e-9)
    tangential = (a_mid * v_mid).sum(axis=1) / speed
    if float(tangential.min()) < -(weights.a_max + 0.25):
        return NlpResult(CartesianTrajectory(x, dt=dt),
                         converged=False, iterations=1, cost=cost,
                         max_violation=max(viol, 0.0),
                         status="braking_bypass")

    # The free positions are x* + s L^-T z, so the cost is J(x*) + s^2 z.z.
    # s^2 is the reference's excess cost over x* (at least 1), the most the
    # guard below accepts: z.z <= 1 on every result it keeps, and SLSQP's
    # absolute ftol acts relative to that budget. With s = 1, corner
    # problems whose excess runs into the thousands end in exit mode 8
    # (line search) instead of converging.
    scale = np.sqrt(max(cost_ref - cost, 1.0))
    M = scale * M
    a_opt = _accelerations(x, dt)[N_FIXED - 1:]

    # z holds the free points' (z_x, z_y) pairs in storage order
    def accel(z):
        return a_opt + M @ z.reshape(-1, 2)

    def cons_f(z):
        return a2max - (accel(z)**2).sum(axis=1)

    def cons_jac(z):
        a = accel(z)
        return -2.0 * (M[:, :, None] * a[:, None, :]).reshape(len(a), -1)

    res = optimize.minimize(
        lambda z: (z @ z, 2.0 * z), np.zeros(2 * (n - N_FIXED)), jac=True,
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        options={"maxiter": SQP_MAX_ITER, "ftol": 1e-9})
    x_out = x.copy()
    x_out[N_FIXED:] += scale * (Linv_T @ res.x.reshape(-1, 2))
    cost_out, _ = assemble_cost(x_out, ref, weights, dt)
    message = f"SLSQP exit {res.status}: {res.message}"

    if (not np.all(np.isfinite(x_out))) or cost_out > cost_ref + 1e-9:
        return fallback(int(res.nit), message)
    viol_out = _max_violation(x_out, dt, a2max)
    converged = bool(res.success) and viol_out <= 1e-6
    return NlpResult(CartesianTrajectory(x_out, dt=dt),
                     converged=converged, iterations=int(res.nit),
                     cost=cost_out, max_violation=max(viol_out, 0.0),
                     status="converged" if converged else "not_converged",
                     message=message)


def _max_violation(x: np.ndarray, dt: float, a2max: float) -> float:
    a = _accelerations(x, dt)[N_FIXED - 1:]  # the constrained a_4..a_N-2
    return float(((a**2).sum(axis=1) - a2max).max())
