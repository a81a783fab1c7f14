"""Locations of the planner sources and bundled scenarios, relative to the
checkout that holds this benchmark."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = Path(__file__).resolve().parent / "out"


class MissingCheckout(RuntimeError):
    """The benchmark is not inside a checkout of the planner."""


def make_importable() -> None:
    """Put the checkout's `src` first on the import path, so the planner is
    measured from source and never from an installed copy."""
    needed = [SRC / "crossplan" / "__init__.py",
              SCENARIOS / "merge_rural.json",
              SCENARIOS / "t_junction.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise MissingCheckout("not a crossplan checkout, missing: "
                              + ", ".join(missing))
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
