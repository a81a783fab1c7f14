"""The planner's count of settable values, so that a new knob shows up as
a failing test. A change that adds or removes one updates the number here
and says why in CHANGES.md."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _settable_values():
    spec = importlib.util.spec_from_file_location(
        "settable_values", ROOT / "tools" / "settable_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_planner_has_85_settable_values():
    count_module = _settable_values().count_module
    total = sum(count_module(path)
                for path in sorted((ROOT / "src" / "crossplan").rglob("*.py")))
    assert total == 85
