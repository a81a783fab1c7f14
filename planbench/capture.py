"""Recording of the planner's rollouts and optimizer solves during one
episode, for the independent checks in `checks.py`."""

from __future__ import annotations

import inspect

import numpy as np

import checks

ROLLOUT_SAMPLES = 100  # checked per binding (prediction, behavior, arbiter)


class Recorder:
    """Context manager that wraps `rollout` where prediction, behavior and
    arbiter call it, and `optimizer.solve`, and keeps every call with its
    result. It changes no argument and no result."""

    def __init__(self):
        from crossplan import arbiter, behavior, idm, optimizer, prediction
        self._modules = {"prediction": prediction, "behavior": behavior,
                         "arbiter": arbiter}
        self._optimizer = optimizer
        self._signature = inspect.signature(idm.rollout)
        self.rollouts = {name: [] for name in self._modules}
        self.solves = []  # (reference, prefix copy, weights, result, closed form)
        self._sqp_ran = False
        self._saved = []

    def _rollout(self, binding, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            call = self._signature.bind(*args, **kwargs)
            call.apply_defaults()
            self.rollouts[binding].append((dict(call.arguments), result))
            return result
        return recorded

    def _solve(self, fn):
        default_weights = self._optimizer.OptimizerWeights()

        def recorded(reference, prefix, weights=default_weights, **kwargs):
            self._sqp_ran = False
            kept = np.array(prefix, dtype=float, copy=True)
            result = fn(reference, prefix, weights, **kwargs)
            self.solves.append((reference, kept, weights, result,
                                not self._sqp_ran))
            return result
        return recorded

    def __enter__(self):
        opt = self._optimizer
        for binding, mod in self._modules.items():
            self._saved.append((mod, "rollout", mod.rollout))
            mod.rollout = self._rollout(binding, mod.rollout)
        self._saved.append((opt, "solve", opt.solve))
        opt.solve = self._solve(opt.solve)
        # SLSQP is reached through the optimizer's `optimize` handle; a
        # stand-in handle notes that it ran
        handle = opt.optimize
        self._saved.append((opt, "optimize", handle))
        recorder = self

        class _Handle:
            @staticmethod
            def minimize(*args, **kwargs):
                recorder._sqp_ran = True
                return handle.minimize(*args, **kwargs)

        opt.optimize = _Handle
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def verify(self) -> tuple[list[str], str]:
        """(problems, summary) of the independent checks on what was
        recorded: an evenly spread sample of rollouts per binding and every
        solve."""
        problems = []
        for binding, calls in self.rollouts.items():
            stride = max(1, len(calls) // ROLLOUT_SAMPLES)
            for call, result in calls[::stride][:ROLLOUT_SAMPLES]:
                problems += [f"{binding} rollout: {p}"
                             for p in checks.check_rollout(call, result)]
        for reference, prefix, weights, result, closed in self.solves:
            problems += [f"solve: {p}" for p in checks.check_solve(
                reference, prefix, weights, result, closed)]
        sampled = {b: min(len(c), ROLLOUT_SAMPLES)
                   for b, c in self.rollouts.items()}
        sqp = sum(1 for s in self.solves if not s[4])
        summary = (f"checked rollouts {sampled} and {len(self.solves)} "
                   f"solves ({sqp} by SQP)")
        return problems, summary
