"""Fingerprint the closed-loop traces of every benchmark workload and of
the acceptance scenes.

For each workload in `planbench/workloads.py`, runs every episode once
through `crossplan.simloop.run` and prints the number of trace records and
the sha256 of their `checks.record_key` sequence (every field of a record
but the wall-clock `plan_ms`). Then it does the same for the bundled
scenarios at agent seeds 0-19 (whatever `--seed` is), with default
parameters and with the overrides of acceptance criteria 5
(`use_virtual_leader=false` on `merge_rural`) and 6 (`w_c=4` on
`t_junction`). Two checkouts plan bit for bit alike on a workload or scene
exactly when the digests match:

    python3 tools/trace_digest.py --seed 0

The benchmark's files are imported, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections.abc import Iterable
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "planbench"))

import repo  # noqa: E402

repo.make_importable()

from crossplan import (SimConfig, load_scenario, scenario_from_dict,  # noqa: E402
                       simloop)

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def canonical(value) -> str:
    """Text that differs between any two float bit patterns (signed zeros
    included), applied through tuples."""
    if isinstance(value, tuple):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    return float(value).hex()


# (scenario file, overrides) of the acceptance criteria 5 and 6 runs
ACCEPTANCE_SCENES = [
    ("merge_rural", {}),
    ("merge_rural", {"use_virtual_leader": "false"}),
    ("t_junction", {}),
    ("t_junction", {"w_c": "4"}),
]
ACCEPTANCE_SEEDS = range(20)


def _digest(scenarios) -> tuple[int, str]:
    """(record count, sha256 of the record keys) over the scenarios' traces,
    in order."""
    h = hashlib.sha256()
    count = 0
    for sc in scenarios:
        trace = simloop.run(sc, SimConfig())
        for rec in trace:
            h.update(canonical(checks.record_key(rec)).encode() + b"\n")
        count += len(trace)
    return count, h.hexdigest()


def lines(seed: int) -> list[tuple[str, Iterable]]:
    """The lines that `main` prints, in order, as (label, scenarios): each
    workload's episodes at `seed`, then each acceptance scene at every
    acceptance seed. The scenarios are built as they are iterated."""
    out = [(f"{name} seed={seed}",
            (scenario_from_dict(episode.raw)
             for episode in WORKLOADS[name].episodes(seed)))
           for name in WORKLOADS]
    for name, overrides in ACCEPTANCE_SCENES:
        setting = ",".join(f"{k}={v}" for k, v in overrides.items())
        out.append((f"{name} seeds=0-{ACCEPTANCE_SEEDS[-1]} "
                    f"params={setting or 'default'}",
                    _acceptance_runs(name, overrides)))
    return out


def _acceptance_runs(name: str, overrides: dict) -> Iterable:
    """A bundled scenario at every acceptance seed."""
    path = repo.SCENARIOS / f"{name}.json"
    return (load_scenario(path, overrides=overrides, seed=seed)
            for seed in ACCEPTANCE_SEEDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for label, scenarios in lines(args.seed):
        count, sha = _digest(scenarios)
        print(f"{label} records={count} sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
