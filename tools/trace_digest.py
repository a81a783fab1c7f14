"""Fingerprint the closed-loop traces of every benchmark workload.

For each workload in `planbench/workloads.py`, runs every episode once
through `crossplan.simloop.run` and prints the number of trace records and
the sha256 of their `checks.record_key` sequence (every field of a record
but the wall-clock `plan_ms`). Two checkouts plan bit for bit alike on a
workload exactly when the digests match:

    python3 tools/trace_digest.py --seed 0

The benchmark's files are imported, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "planbench"))

import repo  # noqa: E402

repo.make_importable()

# the planner first, so its BLAS pin is in place before numpy loads
from crossplan import SimConfig, scenario_from_dict, simloop  # noqa: E402

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


def digest(workload: str, seed: int) -> tuple[int, str]:
    """(record count, sha256 of the record keys) over the workload's
    episodes at `seed`, in episode order."""
    h = hashlib.sha256()
    count = 0
    for episode in WORKLOADS[workload].episodes(seed):
        trace = simloop.run(scenario_from_dict(episode.raw), SimConfig())
        for rec in trace:
            h.update(canonical(checks.record_key(rec)).encode() + b"\n")
        count += len(trace)
    return count, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for name in WORKLOADS:
        count, sha = digest(name, args.seed)
        print(f"{name} seed={args.seed} records={count} sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
