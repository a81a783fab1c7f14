"""Closed-loop planning benchmark for crossplan.

Drives `crossplan.simloop.run` over the episodes of one workload in a single
process and thread, checks the planner's outputs, and prints one JSON
object as the last line of standard output.

    python3 planbench/run.py --workload merge_sparse --seed 0 --seconds 20 --trace 0

Timing (`--trace 0`): the episodes run in whole rounds, each round once
through every episode, as many rounds as the workload asks and more while
one more round still fits in `--seconds`. A trace is a pure function of
(scenario, config, seed), so every round repeats the same cycles. Each
episode run's `plan_ms` values are scaled to a reference machine speed by a
fixed probe kernel timed just before and after it, and a cycle's time is the
median of its scaled values over the rounds. Tracing (`--trace 1`) runs one
untraced and one traced round and reports per-layer metrics. README.md
describes both.
"""

from __future__ import annotations

import os

# one thread: BLAS pools spin on shared cores and swamp the cycle times
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402

_START = time.perf_counter()

import repo  # noqa: E402

# the probe kernel's time on the machine the bounds were set on, with no
# other load on its core; scaled cycle times are "ms at that speed"
REFERENCE_PROBE_MS = 1.25
WARMUP_S = 8.0  # simulated seconds: covers the first SLSQP call of every
                # tjunction_comfort episode (the left turn at 4.8 to 6.6 s)

END_TO_END_UNITS = {
    "cycle_ms_p50": "ms", "cycle_ms_p99": "ms", "cycles_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "ego_progress_m": "m",
    "ego_jerk_rms": "m/s3",
}


def process_age() -> float:
    """Seconds since this process started: from the kernel's start time,
    else from the first lines of this file."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0.0 <= age < 3600.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _START


def probe_ms() -> float:
    """Best of three runs of a fixed kernel of the planner's kind (Python
    arithmetic around small numpy calls), in ms. On a shared machine it
    slows down with the planner when another tenant loads the core."""
    import numpy as np
    grid = np.linspace(0.0, 1.0, 60)
    best = math.inf
    for _ in range(3):
        tic = time.perf_counter()
        acc = 0.0
        for i in range(1000):
            acc += float(np.interp(0.37, grid, grid)) + (i * 0.5) ** 0.5
        best = min(best, time.perf_counter() - tic)
    return best * 1e3


def log(msg: str):
    print(f"[planbench] {msg}", file=sys.stderr, flush=True)


@dataclass
class EpisodeState:
    """What the benchmark keeps of one episode across rounds."""
    name: str
    scenario: object
    cycles: int
    first_trace: list | None = None
    ref_keys: list | None = None
    ticks: list = field(default_factory=list)
    runs_ms: list = field(default_factory=list)  # scaled plan_ms per run
    raw_best_ms: object = None  # per-cycle minimum of the unscaled plan_ms


class Bench:
    def __init__(self, workload: str, seed: int):
        import checks
        from crossplan import PlanningError, SimConfig, simloop
        from crossplan import scenario as scenario_mod
        from workloads import WORKLOADS
        self.checks = checks
        self.simloop = simloop
        self.scenario_mod = scenario_mod
        self.PlanningError = PlanningError
        self.config = SimConfig()
        self.workload = workload
        self.episodes = WORKLOADS[workload].episodes(seed)
        self.rounds = WORKLOADS[workload].rounds
        self.states: list[EpisodeState] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def build(self):
        """Every scenario of the run, through the planner's own loader."""
        step = self.config.sim_step
        for ep in self.episodes:
            sc = self.scenario_mod.scenario_from_dict(ep.raw)
            steps = int(round(sc.duration / step))
            every = int(round(sc.params.dt_replan / step))
            self.states.append(
                EpisodeState(ep.name, sc, len(range(0, steps, every))))

    def run_episode(self, k: int, config=None):
        """(trace, or None after a PlanningError; wall seconds of run())."""
        gc.collect()
        tic = time.perf_counter()
        try:
            trace = self.simloop.run(self.states[k].scenario,
                                     config or self.config)
        except self.PlanningError as exc:
            log(f"FAILED {self.states[k].name}: {exc!r}")
            trace = None
        return trace, time.perf_counter() - tic

    def account(self, k: int, trace, wall: float, speed: float):
        """Count the episode's cycles, check them, keep their times scaled
        by `speed` (reference probe time over the measured one).
        A cycle fails when its episode raised or it broke a per-cycle check;
        a failed cycle is not timed."""
        import numpy as np
        ch = self.checks
        st = self.states[k]
        self.attempted += st.cycles
        if trace is None:
            self.failed += st.cycles
            return
        if st.ref_keys is None:
            st.first_trace = trace
            st.ref_keys = [ch.record_key(r) for r in trace]
            st.ticks = ch.replan_ticks(trace)
            bad = (ch.insane_cycles(trace, st.ticks)
                   if len(st.ticks) == st.cycles else set(range(st.cycles)))
        else:
            bad = ch.cycle_mismatches(st.ref_keys, st.ticks, trace)
        self.problems += [f"{st.name}: {p}"
                          for p in ch.check_plan_time(trace, wall)]
        if bad:
            self.failed += len(bad)
            log(f"FAILED {st.name}: {len(bad)} cycles broke a per-cycle check")
            return
        ms = np.array([trace[i].plan_ms for i in st.ticks])
        st.runs_ms.append(ms * speed)
        st.raw_best_ms = (ms if st.raw_best_ms is None
                          else np.minimum(st.raw_best_ms, ms))

    def round(self, r: int) -> float:
        """One pass over every episode, rotated by the round number so an
        episode's repeats sit at different places in the run. Returns the
        summed wall time of the episodes."""
        n = len(self.states)
        total = 0.0
        before = probe_ms()
        for i in range(n):
            k = (i + r) % n
            trace, wall = self.run_episode(k)
            after = probe_ms()
            self.account(k, trace, wall, REFERENCE_PROBE_MS * 2.0
                         / (before + after))
            before = after
            total += wall
        return total

    def check_repeat(self, trace):
        """The recorded warm-up run must match the start of the measured
        repeats; its last record is the end of a shorter run, not a cycle."""
        st = self.states[0]
        if trace is None or st.ref_keys is None:
            return
        n = len(trace) - 1
        if [self.checks.record_key(r) for r in trace[:n]] != st.ref_keys[:n]:
            self.problems.append(f"{st.name}: recorded warm-up run differs "
                                 f"from the measured repeats")

    def check_outcomes(self):
        """The paper's outcomes on the bundled scenarios, at the share the
        acceptance suite asks for."""
        from crossplan import collision_check
        ch = self.checks
        runs = [(st.scenario, st.first_trace) for st in self.states
                if st.first_trace is not None]
        if self.workload == "merge_sparse":
            passed = [ch.fluent_merge(tr, collision_check(tr, sc))
                      for sc, tr in runs]
            self.problems += ch.check_outcomes(
                passed, "fluent merge (ego above 12 m/s, no collision)")
        elif self.workload == "tjunction_comfort":
            passed = [ch.merges_ahead(tr, sc.graph.zone_between("side", "north"),
                                      "side", "north", "veh3")
                      for sc, tr in runs]
            self.problems += ch.check_outcomes(passed,
                                               "ego merges ahead of veh3")

    def quality(self) -> dict:
        """Progress and comfort of the executed ego path. Jerk is the median
        over episodes of each episode's RMS: one episode that switches
        behaviour (merging instead of waiting) would otherwise set it."""
        import numpy as np
        ch = self.checks
        traces = [st.first_trace for st in self.states
                  if st.first_trace is not None]
        rms = [float(np.sqrt(ch.jerk_squares(t, self.config.sim_step).mean()))
               for t in traces]
        return {
            "ego_progress_m": float(np.mean([ch.path_length(t)
                                             for t in traces])),
            "ego_jerk_rms": float(np.median(rms)),
        }

    def timing(self) -> dict:
        import numpy as np
        cycles = np.concatenate([np.median(st.runs_ms, axis=0)
                                 for st in self.states if st.runs_ms])
        raw = np.concatenate([st.raw_best_ms for st in self.states
                              if st.raw_best_ms is not None])
        log(f"unscaled per-cycle minimum: p50 {np.median(raw):.3f} ms, "
            f"p99 {np.percentile(raw, 99):.3f} ms")
        return {"cycle_ms_p50": float(np.median(cycles)),
                "cycle_ms_p99": float(np.percentile(cycles, 99)),
                "cycles_per_s": float(len(cycles) / (cycles.sum() / 1e3)),
                "cycles_timed": len(cycles)}


def measure(bench: Bench, seconds: float, setup_s: float) -> dict:
    tic = time.perf_counter()
    rounds = 0
    while rounds < bench.rounds or (time.perf_counter() - tic) \
            * (rounds + 1) / rounds <= seconds:
        bench.round(rounds)
        rounds += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timing = bench.timing()
    log(f"{rounds} rounds in {time.perf_counter() - tic:.1f} s, "
        f"{timing['cycles_timed']} cycles timed")
    metrics = {**timing, **bench.quality(), "setup_s": setup_s,
               "peak_rss_mb": rss_mb}
    return {k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items()}


def trace_layers(bench: Bench, tracer, setup_metrics: dict, seed: int) -> dict:
    untraced = bench.round(0)
    tracer.reset()
    with tracer:
        traced = bench.round(1)
    out = tracer.layer_metrics()
    out["simloop.cycles"] = (sum(st.cycles for st in bench.states), "count")
    out.update(setup_metrics)
    out["trace.untraced_s"] = (untraced, "s")
    out["trace.traced_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    path = repo.OUT / f"spans-{bench.workload}-seed{seed}.npz"
    tracer.write(path)
    log(f"{len(tracer.spans)} spans written to {path.relative_to(repo.ROOT)}")
    return out


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        repo.make_importable()
    except repo.MissingCheckout as exc:
        print(f"planbench: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from capture import Recorder
    bench = Bench(args.workload, args.seed)

    tracer, setup_metrics = None, {}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        with tracer:
            bench.build()
        setup_metrics = {
            "scenario.load_s": (tracer.incl["scenario.scenario_from_dict"],
                                "s"),
            "geometry.graph_build_s": (tracer.incl["geometry.RouteGraph"],
                                       "s"),
        }
    else:
        bench.build()
    # warm-up: fills lazy caches and pays the first SLSQP call; its rollouts
    # and solves are recorded for the independent checks
    with Recorder() as recorder:
        warm_trace, _ = bench.run_episode(
            0, replace(bench.config, duration=WARMUP_S))
    setup_s = process_age()
    log(f"{args.workload} seed {args.seed}: {len(bench.states)} episodes, "
        f"set-up {setup_s:.2f} s")

    if args.trace:
        metrics = trace_layers(bench, tracer, setup_metrics, args.seed)
    else:
        metrics = measure(bench, args.seconds, setup_s)

    bench.check_repeat(warm_trace)
    bench.check_outcomes()
    problems, summary = recorder.verify()
    bench.problems += problems
    log(summary)
    for p in bench.problems:
        log(f"PROBLEM {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
