"""Per-layer tracing from outside the planner.

The tracer replaces public functions of the planner's modules by wrappers
that record one span per call (name, start, end, parent) and a few counts
read from the arguments and results. Spans stay in memory until `write`.
A span's self time is its duration minus the time its child spans cover; a
layer is busy while any of its spans runs, so nested spans of one layer are
counted once.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

_now = time.perf_counter


def _count_hypotheses(tr, args, kwargs, result):
    tr.counts["prediction.hypotheses"] += sum(len(h) for h in result.values())


def _count_options(tr, args, kwargs, result):
    tr.counts["behavior.options"] += len(result)


def _count_vl(tr, args, kwargs, result):
    tr.counts["behavior.vl_built"] += result is not None


def _count_rollout(tr, args, kwargs, result):
    tr.counts["idm.rollout_steps"] += len(result)


def _count_solve(tr, args, kwargs, result):
    tr.counts["optimizer.nonconverged"] += not result.converged


def _count_sqp(tr, args, kwargs, result):
    tr.counts["optimizer.sqp_iterations"] += int(result.nit)


# (module, attribute, span name, layer, counter hook); attributes are looked
# up where the planner calls them, so `rollout` is wrapped in every module
# that imported it by name
def _targets():
    from crossplan import (arbiter, behavior, geometry, idm, optimizer,
                           prediction, scenario, simloop)
    return [
        (simloop, "run", "simloop.run", "simloop", None),
        (prediction, "predict", "prediction.predict", "prediction",
         _count_hypotheses),
        (behavior, "generate_options", "behavior.generate_options",
         "behavior", _count_options),
        (behavior, "build_virtual_leader", "behavior.build_virtual_leader",
         "behavior", _count_vl),
        (arbiter, "score_options", "arbiter.score_options", "arbiter", None),
        (arbiter, "select", "arbiter.select", "arbiter", None),
        (arbiter, "merge_courtesy", "arbiter.merge_courtesy", "arbiter", None),
        (arbiter, "crossing_courtesy", "arbiter.crossing_courtesy", "arbiter",
         None),
        (prediction, "rollout", "idm.rollout@prediction", "idm",
         _count_rollout),
        (behavior, "rollout", "idm.rollout@behavior", "idm", _count_rollout),
        (arbiter, "rollout", "idm.rollout@arbiter", "idm", _count_rollout),
        (idm, "target_speed_profile", "idm.target_speed_profile@idm", "idm",
         None),
        (behavior, "target_speed_profile", "idm.target_speed_profile@behavior",
         "idm", None),
        (optimizer, "solve", "optimizer.solve", "optimizer", _count_solve),
        (geometry.Polyline, "project", "geometry.project", "geometry", None),
        (geometry.RouteGraph, "__init__", "geometry.RouteGraph", "geometry",
         None),
        (scenario, "scenario_from_dict", "scenario.scenario_from_dict",
         "scenario", None),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name id, start, end, parent index)
        self._stack: list[list] = []  # [span index, layer, start, child time]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)    # span name -> summed duration
        self.self_s = defaultdict(float)  # layer -> summed self time
        self.busy = defaultdict(float)    # layer -> time any span was open
        self.counts = defaultdict(int)
        self._saved: list[tuple] = []

    def reset(self):
        self.spans.clear()
        for d in (self.calls, self.incl, self.self_s, self.busy, self.counts):
            d.clear()

    def wrap(self, fn, name: str, layer: str, hook=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, spans = self._stack, self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            frame = [idx, layer, 0.0, 0.0]
            stack.append(frame)
            frame[2] = start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                spans[idx] = (nid, start, end,
                              parent[0] if parent is not None else -1)
                tracer.calls[name] += 1
                tracer.incl[name] += dur
                tracer.self_s[layer] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                if not any(f[1] == layer for f in stack):
                    tracer.busy[layer] += dur
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function; `uninstall` puts the originals back."""
        from crossplan import optimizer
        for owner, attr, name, layer, hook in _targets():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, layer, hook))
        # SLSQP is reached through the optimizer's `optimize` module handle;
        # a stand-in handle times it without touching scipy for anyone else
        handle = optimizer.optimize
        self._saved.append((optimizer, "optimize", handle))
        optimizer.optimize = types.SimpleNamespace(
            minimize=self.wrap(handle.minimize, "optimizer.sqp", "optimizer",
                               _count_sqp))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _calls(self, *names):
        return sum(self.calls[n] for n in names)

    def _incl(self, *names):
        return sum(self.incl[n] for n in names)

    def layer_metrics(self) -> dict:
        rollouts = ("idm.rollout@prediction", "idm.rollout@behavior",
                    "idm.rollout@arbiter")
        profiles = ("idm.target_speed_profile@idm",
                    "idm.target_speed_profile@behavior")
        c = self.counts
        return {
            "simloop.self_s": (self.self_s["simloop"], "s"),
            "prediction.busy_s": (self.busy["prediction"], "s"),
            "prediction.self_s": (self.self_s["prediction"], "s"),
            "prediction.hypotheses": (c["prediction.hypotheses"], "count"),
            "behavior.busy_s": (self.busy["behavior"], "s"),
            "behavior.self_s": (self.self_s["behavior"], "s"),
            "behavior.options": (c["behavior.options"], "count"),
            "behavior.vl_attempts": (
                self.calls["behavior.build_virtual_leader"], "count"),
            "behavior.vl_built": (c["behavior.vl_built"], "count"),
            "behavior.speed_profiles": (
                self.calls["idm.target_speed_profile@behavior"], "count"),
            "arbiter.busy_s": (self.busy["arbiter"], "s"),
            "arbiter.self_s": (self.self_s["arbiter"], "s"),
            "arbiter.courtesy_evals": (
                self._calls("arbiter.merge_courtesy",
                            "arbiter.crossing_courtesy"), "count"),
            "arbiter.reaction_rollouts": (
                self.calls["idm.rollout@arbiter"], "count"),
            "idm.rollouts": (self._calls(*rollouts), "count"),
            "idm.rollout_steps": (c["idm.rollout_steps"], "count"),
            "idm.rollout_s": (self._incl(*rollouts), "s"),
            "idm.profile_builds": (self._calls(*profiles), "count"),
            "idm.profile_s": (self._incl(*profiles), "s"),
            "optimizer.solves": (self.calls["optimizer.solve"], "count"),
            "optimizer.busy_s": (self.busy["optimizer"], "s"),
            "optimizer.sqp_runs": (self.calls["optimizer.sqp"], "count"),
            "optimizer.sqp_iterations": (c["optimizer.sqp_iterations"],
                                         "count"),
            "optimizer.sqp_s": (self.incl["optimizer.sqp"], "s"),
            "optimizer.nonconverged": (c["optimizer.nonconverged"], "count"),
            "geometry.projections": (self.calls["geometry.project"], "count"),
            "geometry.project_s": (self.incl["geometry.project"], "s"),
        }

    def write(self, path: Path):
        """Spans as arrays: name index, start, end (perf_counter seconds),
        parent span index (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        done = [s for s in self.spans if s is not None]
        arr = np.array(done, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names),
                            name=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2],
                            parent=arr[:, 3].astype(np.int64))
