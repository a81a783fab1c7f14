"""Command line entry points: run a scenario or validate a scenario file."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import PlanningError, ScenarioError
from .scenario import Scenario, load_scenario
from .simloop import SimConfig, TraceRecord, collision_check, run

EXIT_OK = 0
EXIT_PLANNER = 1
EXIT_INPUT = 2

CSV_BASE_HEADER = ["t", "ego_s", "ego_x", "ego_y", "ego_v", "ego_a_lon",
                   "ego_a_lat", "ego_a_abs", "selected_option", "plan_ms",
                   "solver_status"]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, overrides=_parse_sets(args.set),
                                 seed=args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "run":
        out = Path(args.out)
        summary = out.with_suffix(".summary.json")
        why = ("no such directory" if not out.parent.is_dir()
               else "is a directory" if out.is_dir()
               else f"{summary} is a directory" if summary.is_dir() else None)
        if why:
            print(f"error: --out {args.out}: {why}", file=sys.stderr)
            return EXIT_INPUT
    try:
        if args.command == "check":
            print(f"{scenario.name}: OK ({len(scenario.graph.routes)} routes, "
                  f"{len(scenario.vehicles)} vehicles, "
                  f"{len(scenario.graph.conflict_zones)} conflict zones)")
            return EXIT_OK
        return _run(scenario, args)
    except PlanningError as exc:
        print(f"planner error: {exc}", file=sys.stderr)
        return EXIT_PLANNER


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossplan",
        description="Closed-loop intersection trajectory planning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario RNG seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       help="override a planner parameter (repeatable)")

    p_run = sub.add_parser("run", help="simulate and write trace CSV + summary")
    common(p_run)
    p_run.add_argument("--out", default="trace.csv", help="trace CSV path")

    p_check = sub.add_parser("check", help="validate a scenario file")
    common(p_check)
    return parser


def _parse_sets(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _run(scenario: Scenario, args) -> int:
    trace = run(scenario, SimConfig())
    out = Path(args.out)
    _write_csv(out, trace, scenario)
    summary = _summarize(trace, scenario)
    out.with_suffix(".summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _write_csv(path: Path, trace: list[TraceRecord], scenario: Scenario):
    vids = [v.id for v in scenario.vehicles]
    header = CSV_BASE_HEADER + [c for i in range(len(vids))
                                for c in (f"veh{i + 1}_s", f"veh{i + 1}_v")]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in trace:
            row = [f"{rec.t:.2f}", f"{rec.ego_s:.4f}", f"{rec.ego_x:.4f}",
                   f"{rec.ego_y:.4f}", f"{rec.ego_v:.4f}",
                   f"{rec.ego_a_lon:.4f}", f"{rec.ego_a_lat:.4f}",
                   f"{rec.ego_a_abs:.4f}", rec.selected, f"{rec.plan_ms:.3f}",
                   rec.solver_status]
            for vid in vids:
                s, v = rec.vehicles[vid]
                row += [f"{s:.4f}", f"{v:.4f}"]
            writer.writerow(row)


def _summarize(trace: list[TraceRecord], scenario: Scenario) -> dict:
    v = np.array([r.ego_v for r in trace])
    a = np.array([r.ego_a_abs for r in trace])
    cycles = [r for r in trace if r.plan_ms > 0.0]
    plan_ms = np.array([r.plan_ms for r in cycles])
    status_cycles = Counter(r.solver_status for r in cycles)
    timeline = []
    for rec in trace:
        if rec.selected and (not timeline or timeline[-1][1] != rec.selected):
            timeline.append((rec.t, rec.selected))
    return {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "min_speed": float(v.min()),
        "max_speed": float(v.max()),
        "max_abs_acceleration": float(a.max()),
        "selection_timeline": [{"t": t, "option": o} for t, o in timeline],
        "collisions": collision_check(trace, scenario),
        "plan_ms_mean": float(plan_ms.mean()) if len(plan_ms) else 0.0,
        "plan_ms_p95": float(np.percentile(plan_ms, 95)) if len(plan_ms) else 0.0,
        "plan_ms_max": float(plan_ms.max()) if len(plan_ms) else 0.0,
        "solver_status_cycles": dict(sorted(status_cycles.items())),
    }


if __name__ == "__main__":
    sys.exit(main())
