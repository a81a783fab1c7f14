"""Trajectory smoothing: cost gradient, constrained solve, reference mapping."""

import types

import numpy as np
import pytest

from crossplan import (
    CartesianTrajectory,
    LongTrajectory,
    OptimizerWeights,
    optimizer,
    reference_to_cartesian,
    solve,
)
from crossplan.errors import TooShort
from crossplan.optimizer import N_FIXED, N_OPT, _stencils, assemble_cost

from scenes import circle_route

DT = 0.05
N = 60


def _smooth_reference(rng, n=N, dt=DT, speed=None):
    speed = speed if speed is not None else rng.uniform(5.0, 20.0)
    heading = rng.uniform(-np.pi, np.pi)
    direction = np.array([np.cos(heading), np.sin(heading)])
    t = np.arange(n)[:, None] * dt
    wiggle = 0.2 * np.sin(t * rng.uniform(0.5, 2.0)) @ np.array([[1.0, -0.3]])
    return rng.uniform(-50.0, 50.0, 2) + speed * t * direction + wiggle


def _random_weights(rng):
    return OptimizerWeights(w_spatial=float(rng.uniform(0.2, 3.0)),
                            w_acc=float(rng.uniform(0.01, 1.0)),
                            w_jerk=float(rng.uniform(0.01, 1.0)),
                            w_snap=float(rng.uniform(0.01, 1.0)),
                            a_max=5.0)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(10):
        ref = _smooth_reference(rng)
        x = ref + rng.normal(0.0, 0.3, ref.shape)
        weights = _random_weights(rng)
        cost, grad = assemble_cost(x, ref, weights, DT)
        num = np.empty_like(grad)
        for i in range(N):
            for dim in range(2):
                xp = x.copy()
                xp[i, dim] += h
                xm = x.copy()
                xm[i, dim] -= h
                cp, _ = assemble_cost(xp, ref, weights, DT)
                cm, _ = assemble_cost(xm, ref, weights, DT)
                num[i, dim] = (cp - cm) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(num))))
        assert np.max(np.abs(grad - num)) / scale < 1e-5


def test_cost_does_not_depend_on_the_distance_from_the_origin():
    # positions on a 2^-36 m grid, so the 2 km shift itself is exact and any
    # difference comes from evaluating the cost
    rng = np.random.default_rng(43)
    offset = np.array([2000.0, -2000.0])
    weights = OptimizerWeights()
    for _ in range(5):
        ref = _smooth_reference(rng)
        prefix = ref[:N_FIXED] + rng.normal(0.0, 0.05, (N_FIXED, 2))
        x = solve(CartesianTrajectory(ref, DT), prefix).trajectory.positions
        x, ref = (np.round(p * 2.0**36) / 2.0**36 for p in (x, ref))
        near, _ = assemble_cost(x, ref, weights, DT)
        far, _ = assemble_cost(x + offset, ref + offset, weights, DT)
        assert abs(far - near) <= 1e-9 * near


def _quadratic_minimizer(ref, prefix, weights, dt):
    """Minimizer of the (quadratic) cost with the prefix fixed: four Newton
    steps from the reference, on a Hessian recovered from gradient
    evaluations and solved by LU, independently of the planner's cached
    factor. The gradient is exact wherever the trajectory lies, so the
    steps converge on the optimum to rounding."""
    n = len(ref)
    hess = np.empty((n, n))
    for i in range(n):
        e = np.zeros((n, 2))
        e[i, 0] = 1.0
        _, g = assemble_cost(e, np.zeros((n, 2)), weights, dt)
        hess[:, i] = g[:, 0]
    free = slice(N_FIXED, n)
    out = ref.copy()
    out[:N_FIXED] = prefix
    for _ in range(4):
        _, g = assemble_cost(out, ref, weights, dt)
        out[free] -= np.linalg.solve(hess[free, free], g[free])
    return out


def test_unconstrained_solve_matches_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ref = _smooth_reference(rng, speed=rng.uniform(3.0, 12.0))
        prefix = ref[:N_FIXED].copy()
        weights = _random_weights(rng)
        result = solve(CartesianTrajectory(ref, DT), prefix, weights)
        want = _quadratic_minimizer(ref, prefix, weights, DT)
        assert result.converged and result.status == "closed_form"
        assert result.iterations == 1  # the linear solve already feasible
        assert np.max(np.abs(result.trajectory.positions - want)) < 1e-8


def test_straight_constant_speed_reference_is_its_own_optimum():
    # every stencil residual of a straight constant-speed line is 0, so the
    # reference is the optimum wherever it lies
    t = np.arange(N)[:, None] * DT
    line = 11.0 * t * np.array([0.6, -0.8])
    for offset in (0.0, 300.0, 2000.0):
        ref = line + offset * np.array([1.0, 1.0]) / np.sqrt(2.0)
        result = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy())
        assert result.status == "closed_form"
        assert np.max(np.abs(result.trajectory.positions - ref)) < 1e-9


def test_closed_form_is_shift_invariant():
    # the problem on a 2^-36 m grid, so the 2 km shift itself is exact
    rng = np.random.default_rng(47)
    offset = np.array([2000.0, -2000.0])
    for _ in range(5):
        ref = np.round(_smooth_reference(rng, speed=rng.uniform(3.0, 12.0))
                       * 2.0**36) / 2.0**36
        prefix = ref[:N_FIXED].copy()
        weights = _random_weights(rng)
        near = solve(CartesianTrajectory(ref, DT), prefix, weights)
        far = solve(CartesianTrajectory(ref + offset, DT), prefix + offset,
                    weights)
        assert near.status == far.status == "closed_form"
        moved = far.trajectory.positions - offset
        assert np.max(np.abs(moved - near.trajectory.positions)) < 1e-9


def test_prefix_is_bitwise_fixed():
    rng = np.random.default_rng(29)
    ref = _smooth_reference(rng)
    prefix = ref[:N_FIXED] + rng.normal(0.0, 0.05, (N_FIXED, 2))
    result = solve(CartesianTrajectory(ref, DT), prefix)
    assert np.array_equal(result.trajectory.positions[:N_FIXED], prefix)


def _corner_reference(speed, n=N, dt=DT):
    """Right-angle turn at constant speed: unbounded acceleration demand."""
    half = n // 2
    pts = [np.array([0.0, 0.0])]
    for k in range(1, n):
        step = np.array([speed * dt, 0.0]) if k <= half else \
            np.array([0.0, speed * dt])
        pts.append(pts[-1] + step)
    return np.array(pts)


def _max_accel(positions, dt):
    a = (positions[2:] - 2.0 * positions[1:-1] + positions[:-2]) / dt ** 2
    return float(np.max(np.hypot(a[:, 0], a[:, 1])))


def test_constrained_solve_respects_acceleration_limit():
    for a_max, speeds in ((5.0, (8.0, 12.0, 16.0)), (2.0, (8.0, 11.0, 14.0))):
        weights = OptimizerWeights(a_max=a_max)
        for speed in speeds:
            ref = _corner_reference(speed)
            assert _max_accel(ref, DT) > a_max  # the raw corner is infeasible
            result = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(),
                           weights)
            assert result.converged, (a_max, speed, result.message)
            assert result.iterations <= 30, (a_max, speed, result.iterations)
            x = result.trajectory.positions
            assert _max_accel(x[N_FIXED - 1:], DT) <= a_max + 1e-4
            assert result.max_violation <= 1e-6


def test_constrained_solve_meets_the_kkt_conditions():
    # an oracle from the returned positions alone: the result is feasible,
    # and the cost gradient is a nonnegative combination of the gradients
    # of ||a_n||^2 over the rows at the limit, with none from the others
    centres = np.arange(N_FIXED, N - 1)  # the constrained a_4..a_N-2
    most_active = 0
    for a_max in (1.0, 2.0, 3.0):
        weights = OptimizerWeights(a_max=a_max)
        # the largest diagonal entry of the cost's Hessian, so that a
        # gradient over it reads as a distance in metres
        curvature = 2.0 * (weights.w_spatial + 6.0 * weights.w_acc / DT**4
                           + 2.5 * weights.w_jerk / DT**6
                           + 70.0 * weights.w_snap / DT**8)
        for speed in (8.0, 11.0, 14.0):
            ref = _corner_reference(speed)
            result = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(),
                           weights)
            assert result.status == "converged", (a_max, speed)
            x = result.trajectory.positions
            a = (x[centres + 1] - 2.0 * x[centres] + x[centres - 1]) / DT**2
            excess = (a**2).sum(axis=1) - a_max**2
            assert excess.max() <= 1e-9
            active = excess >= -1e-8
            most_active = max(most_active, int(active.sum()))
            # column k: the gradient of ||a_k||^2 over the free positions
            B = np.zeros((N, 2, len(centres)))
            for k, n in enumerate(centres):
                for offset, c in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                    B[n + offset, :, k] = 2.0 * c * a[k] / DT**2
            B = B[N_FIXED:].reshape(-1, len(centres))
            _, grad = assemble_cost(x, ref, weights, DT)
            g = grad[N_FIXED:].ravel()
            mu, *_ = np.linalg.lstsq(B[:, active], -g, rcond=None)
            assert mu.min() >= 0.0, (a_max, speed, mu.min())
            off = np.abs(g + B[:, active] @ mu).max() / curvature
            assert off <= 1e-13, (a_max, speed, off)
            mu_all, *_ = np.linalg.lstsq(B, -g, rcond=None)
            inactive = np.abs(mu_all[~active]).max() / mu_all.max()
            assert inactive <= 1e-6, (a_max, speed, inactive)
    assert most_active > 20


def test_solve_reports_how_it_ended(monkeypatch):
    weights = OptimizerWeights(a_max=2.0)
    ref = _corner_reference(14.0)
    converged = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(),
                      weights)
    assert converged.status == "converged"
    assert converged.message.startswith("converged: ")
    assert converged.iterations > 3
    monkeypatch.setattr(optimizer, "MAX_ITER", 3)
    stopped = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(),
                    weights)
    assert stopped.status == "not_converged" and not stopped.converged
    assert stopped.iterations == 3
    assert stopped.message.startswith("iteration limit 3: ")
    # a smooth circle driven at 7.9 m/s^2 lateral: every trajectory within
    # a_max = 5 strays so far from it that it costs more than the reference
    t = np.arange(N) * DT
    ref = 20.0 * np.stack([np.sin(0.63 * t), 1.0 - np.cos(0.63 * t)], axis=1)
    fallback = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(),
                     OptimizerWeights(a_max=5.0))
    assert fallback.status == "reference_fallback" and not fallback.converged
    assert np.array_equal(fallback.trajectory.positions, ref)


def test_solve_never_increases_cost_over_the_reference_guess():
    rng = np.random.default_rng(31)
    weights = OptimizerWeights()
    for speed in (8.0, 14.0):
        ref = _corner_reference(speed) + rng.normal(0.0, 0.02, (N, 2))
        result = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(),
                       weights)
        c_out, _ = assemble_cost(result.trajectory.positions, ref, weights, DT)
        c_ref, _ = assemble_cost(ref, ref, weights, DT)
        assert c_out <= c_ref + 1e-9


def test_closed_form_with_a_wrong_factor_falls_back_to_the_reference(
        monkeypatch):
    # a 0.3 m wiggle 300 m from the origin: the reference costs 88.5 and
    # the optimum 3.0; a factor scaled by 1.5 overshoots to a feasible point
    # costing 329.1 whose Newton estimate is -257.9
    from crossplan import optimizer
    t = np.arange(N)[:, None] * DT
    ref = (np.array([300.0, 0.0]) + 10.0 * t * np.array([1.0, 0.0])
           + 0.3 * np.sin(2.0 * t) * np.array([0.0, 1.0]))
    weights = OptimizerWeights()
    c_ref, _ = assemble_cost(ref, ref, weights, DT)
    good = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(), weights)
    assert good.status == "closed_form"
    assert good.cost == assemble_cost(good.trajectory.positions, ref,
                                      weights, DT)[0]
    assert good.cost < 0.05 * c_ref
    whitening = optimizer._whitening
    monkeypatch.setattr(optimizer, "_whitening",
                        lambda *a: tuple(1.5 * m for m in whitening(*a)))
    bad = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(), weights)
    assert bad.status == "reference_fallback" and not bad.converged
    c_out, _ = assemble_cost(bad.trajectory.positions, ref, weights, DT)
    assert bad.cost == c_out <= c_ref + 1e-9


def _max_jerk(positions, dt):
    j = np.diff(positions, n=3, axis=0) / dt ** 3
    return float(np.max(np.hypot(j[:, 0], j[:, 1])))


@pytest.mark.parametrize("n, dt", [(8, 0.05), (20, 0.1), (60, 0.05),
                                   (61, 0.033)])
def test_stencils_are_the_written_out_difference_rows(n, dt):
    acc = np.zeros((n - 1 - N_FIXED, n))
    for r, i in enumerate(range(N_FIXED, n - 1)):
        acc[r, i - 1:i + 2] = np.array([1.0, -2.0, 1.0]) / dt**2
    jerk = np.zeros((n - 2 - N_FIXED, n))
    snap = np.zeros((n - 2 - N_FIXED, n))
    for r, i in enumerate(range(N_FIXED, n - 2)):
        jerk[r, i - 2:i + 3] = (np.array([-1.0, 2.0, 0.0, -2.0, 1.0])
                                / (2.0 * dt**3))
        snap[r, i - 2:i + 3] = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / dt**4
    for got, want in zip(_stencils(n, dt), (acc, jerk, snap)):
        assert np.array_equal(got, want)


def test_solver_smooths_a_velocity_kink():
    # constant heading, abrupt speed drop midway
    n, dt = N, DT
    v = np.where(np.arange(n) < n // 2, 15.0, 7.0)
    x = np.concatenate([[0.0], np.cumsum(v[:-1] * dt)])
    ref = np.stack([x, np.zeros(n)], axis=1)
    result = solve(CartesianTrajectory(ref, dt), ref[:N_FIXED].copy())
    assert _max_jerk(result.trajectory.positions, dt) < _max_jerk(ref, dt)


def _braking_reference(n=N, dt=DT):
    """Straight line braking at 8 m/s^2 from 15 m/s to a stop."""
    v = np.maximum(15.0 - 8.0 * np.arange(n) * dt, 0.0)
    x = np.concatenate([[0.0], np.cumsum(v[:-1] * dt)])
    return np.stack([x, np.zeros(n)], axis=1)


def test_emergency_braking_keeps_the_unconstrained_smoothing():
    # hard longitudinal braking (beyond a_max) is a safety demand: the
    # solver must not stretch it to feasibility, and must stay fast
    import time

    dt = DT
    ref = _braking_reference()
    weights = OptimizerWeights()
    start = time.perf_counter()
    result = solve(CartesianTrajectory(ref, dt), ref[:N_FIXED].copy(), weights)
    elapsed = time.perf_counter() - start
    assert not result.converged and result.status == "braking_bypass"
    assert result.iterations == 1
    assert elapsed < 0.1
    # still the cost-optimal smoothing, never worse than the raw reference
    c_out, _ = assemble_cost(result.trajectory.positions, ref, weights, dt)
    c_ref, _ = assemble_cost(ref, ref, weights, dt)
    assert c_out <= c_ref + 1e-9
    # braking is preserved, not relaxed to the comfort limit
    x = result.trajectory.positions
    assert float(np.hypot(*(x[-1] - x[-2]))) / dt < 3.0


def test_the_active_set_solver_is_reached_only_through_the_optimize_handle(
        monkeypatch):
    # planbench's recorder and tracer see the constrained solver by
    # replacing the module's `optimize` handle, as this stand-in does: one
    # `minimize` call per constrained solve, none for a solve that ends in
    # closed form or the braking bypass
    handle = optimizer.optimize
    calls = []

    def minimize(*args, **kwargs):
        result = handle.minimize(*args, **kwargs)
        calls.append(result.success)
        return result

    monkeypatch.setattr(optimizer, "optimize",
                        types.SimpleNamespace(minimize=minimize))
    weights = OptimizerWeights(a_max=2.0)
    for speed in (8.0, 11.0):
        ref = _corner_reference(speed)
        result = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy(),
                       weights)
        assert result.status == "converged"
    assert calls == [True, True]
    t = np.arange(N)[:, None] * DT
    line = 11.0 * t * np.array([0.6, -0.8])
    closed = solve(CartesianTrajectory(line, DT), line[:N_FIXED].copy(),
                   weights)
    ref = _braking_reference()
    braking = solve(CartesianTrajectory(ref, DT), ref[:N_FIXED].copy())
    assert (closed.status, braking.status) == ("closed_form",
                                               "braking_bypass")
    assert calls == [True, True]


def test_short_problems_are_rejected():
    ref = np.zeros((7, 2))
    ref[:, 0] = np.arange(7.0)
    with pytest.raises(TooShort):
        assemble_cost(ref, ref, OptimizerWeights(), DT)
    with pytest.raises(ValueError):
        solve(CartesianTrajectory(np.outer(np.arange(10.0), [1, 0]), DT),
              np.zeros((3, 2)))


def test_weights_validation():
    with pytest.raises(ValueError):
        OptimizerWeights(w_spatial=-1.0)
    with pytest.raises(ValueError):
        OptimizerWeights(a_max=0.0)


def test_cartesian_trajectory_derivative_shapes():
    rng = np.random.default_rng(37)
    traj = CartesianTrajectory(_smooth_reference(rng), DT)
    assert traj.accelerations().shape == (N - 2, 2)
    with pytest.raises(ValueError):
        CartesianTrajectory(np.full((10, 2), np.nan), DT)


def test_reference_to_cartesian_follows_the_route():
    route = circle_route("c", 60.0, n=600, limit=15.0)
    t = np.arange(201) * DT
    ref = LongTrajectory(10.0 + 12.0 * t, np.full(201, 12.0), DT)
    d = 0.4
    prefix = np.array([route.centerline.point_at(10.0 + 12.0 * k * DT, d)
                       for k in range(-3, 1)])
    traj = reference_to_cartesian(ref, route, prefix, d)
    assert len(traj) == N_OPT
    assert np.array_equal(traj.positions[:N_FIXED], prefix)
    # plan sample k is reference sample k - 3, its offset falling from d at
    # the first free sample to 0 at the last
    for k, offset in ((N_FIXED, d), (31, d * (1.0 - 27 / (N_OPT - 5))),
                      (N_OPT - 1, 0.0)):
        want = route.centerline.point_at(float(ref.s[k - 3]), offset)
        assert np.allclose(traj.positions[k], want, atol=1e-9)
    short = LongTrajectory(ref.s[:N_OPT - 4], ref.v[:N_OPT - 4], DT)
    with pytest.raises(TooShort):
        reference_to_cartesian(short, route, prefix, d)
