"""Compare the closed-loop traces of this checkout with those of another
checkout, line by line of `tools/trace_digest.py` at seed 0.

Each line (a workload's episodes, or an acceptance scene at seeds 0-19) is
planned in a fresh process per checkout: once by this checkout's
`crossplan` and once by the one under `PARENT_DIR/src`, on the scenarios
that this checkout's `trace_digest.lines` lists. Per line it prints

- the option-cost entries (a record's cost per option label) that only
  the other checkout has (removed), that only this one has (added), and
  that both have with different values (moved),
- the records whose ego state (arc length, position, speed and
  accelerations) differs,
- the records whose `solver_status` differs (the digest leaves it out),
- the episodes whose sequence of selected options changes, and
- the largest shift of an episode's final ego arc length.

Records are matched by their place in the episode:

    python3 tools/trace_diff.py PARENT_DIR
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from itertools import zip_longest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
EGO_STATE = ("ego_s", "ego_x", "ego_y", "ego_v", "ego_a_lon", "ego_a_lat",
             "ego_a_abs")


def summarise(src: str, index: int) -> list[list[tuple]]:
    """Line `index` of `trace_digest.lines(0)` planned by the `crossplan`
    under `src`: per episode, per record (option costs, ego state,
    selected option, solver status). Run it in a process of its own."""
    sys.path.insert(0, src)
    # imported first, this planner stays the one in use after trace_digest
    # puts this checkout's `src` first on the path
    import crossplan
    sys.path.insert(0, str(TOOLS))
    import trace_digest

    _, scenarios = trace_digest.lines(0)[index]
    return [[(rec.option_costs, tuple(getattr(rec, f) for f in EGO_STATE),
              rec.selected, rec.solver_status)
             for rec in crossplan.simloop.run(sc, crossplan.SimConfig())]
            for sc in scenarios]


def compare(ours: list[list[tuple]], theirs: list[list[tuple]]) -> str:
    """The differences between two `summarise` results, as one line."""
    removed = added = moved = states = statuses = changed = records = 0
    shift = 0.0
    for a, b in zip(ours, theirs, strict=True):
        for ((costs_a, state_a, _, status_a),
             (costs_b, state_b, _, status_b)) in zip_longest(
                a, b, fillvalue=({}, None, None, None)):
            records += 1
            removed += len(costs_b.keys() - costs_a.keys())
            added += len(costs_a.keys() - costs_b.keys())
            moved += sum(costs_a[k] != costs_b[k]
                         for k in costs_a.keys() & costs_b.keys())
            states += state_a != state_b
            statuses += status_a != status_b
        changed += [r[2] for r in a] != [r[2] for r in b]
        shift = max(shift, abs(a[-1][1][0] - b[-1][1][0]))
    return (f"option-cost entries removed {removed}, added {added}, moved"
            f" {moved}; ego state differs in {states} of {records} records;"
            f" solver status differs in {statuses} of {records} records;"
            f" selections change in {changed} of {len(ours)} episodes;"
            f" largest final ego_s shift {shift:.3g} m")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path, metavar="PARENT_DIR",
                        help="checkout to compare with")
    args = parser.parse_args(argv)
    parent_src = args.parent_dir.resolve() / "src"
    if not (parent_src / "crossplan" / "__init__.py").is_file():
        parser.error(f"no crossplan package under {parent_src}")
    sys.path.insert(0, str(TOOLS))
    import trace_digest

    labels = [label for label, _ in trace_digest.lines(0)]
    sources = [str(trace_digest.repo.SRC), str(parent_src)]
    # a fresh process for each line and checkout, both checkouts at once
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2, maxtasksperchild=1) as pool:
        for index, label in enumerate(labels):
            ours, theirs = pool.starmap(summarise,
                                        [(src, index) for src in sources])
            print(f"{label}: {compare(ours, theirs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
