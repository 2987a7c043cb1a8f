"""Behaviour fingerprint of the scenario-grid sweeps.

Records, for a tiny grid (two presets, m = 16 and 8, seeds 0 and 1):

* every row of ``ScenarioRunner``, ``live_sweep`` (sync and async) and
  ``tracking_sweep``, without the wall-clock fields;
* the store key of every cell (read back from a JSONL store);
* the on-disk ``cached_optimum`` file names.

``tests/test_sweep_fingerprint.py`` compares a fresh recording with the
committed ``tests/data/sweep_fingerprint.json``: counts and strings
exactly, floats to 1e-9 relative.  A refactor leaves it unchanged; a
change of behaviour rewrites it in the same commit and says why::

    PYTHONPATH=src python -m tests.sweep_fingerprint        # rewrite
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import tempfile

from repro.engine import JsonlStore
from repro.livesim import live_sweep
from repro.tracking import tracking_sweep
from repro.workloads import ScenarioRunner, clear_cache, set_cache_dir
from repro.workloads.runner import TIMING_FIELDS

PATH = pathlib.Path(__file__).resolve().parent / "data" / "sweep_fingerprint.json"

SCENARIOS = ("paper-planetlab", "regional-surge")
SIZES = (16, 8)
SEEDS = (0, 1)
#: Row fields that measure wall-clock, not behaviour.
WALL_FIELDS = frozenset(TIMING_FIELDS) | {"events_per_sec", "solve_wall_s"}


def _sweeps():
    """``name -> callable(store path) -> rows`` for every recorded sweep."""
    grid = dict(sizes=SIZES, seeds=SEEDS)
    return {
        "scenario_runner": lambda path: [
            r.as_dict() for r in ScenarioRunner(
                SCENARIOS, mine_max_iterations=30, **grid
            ).run(store=path)
        ],
        "live_sync": lambda path: live_sweep(
            SCENARIOS, modes=("sync",), rounds=30, store=path, **grid
        ),
        "live_async": lambda path: live_sweep(
            SCENARIOS, modes=("async",), rounds=30, store=path, **grid
        ),
        "tracking": lambda path: tracking_sweep(
            SCENARIOS, traces=("drift", "flash-replay"), store=path, **grid
        ),
    }


def record() -> dict:
    """The fingerprint of the current code (a few seconds), in its JSON
    form (numpy scalars become plain numbers)."""
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = os.path.join(tmp, "optima")
        previous = set_cache_dir(cache_dir)
        clear_cache()  # a warm memo would skip the disk tier
        try:
            for name, run in _sweeps().items():
                path = os.path.join(tmp, f"{name}.jsonl")
                rows = run(path)
                out[name] = {
                    "rows": [
                        {k: v for k, v in row.items() if k not in WALL_FIELDS}
                        for row in rows
                    ],
                    "keys": list(JsonlStore(path).keys()),
                }
            out["cache_files"] = sorted(os.listdir(cache_dir))
        finally:
            set_cache_dir(previous)
            clear_cache()
    return json.loads(json.dumps(out))


def _same(a, b, rel: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def differences(expected: dict, actual: dict, *, rel: float = 1e-9) -> list[str]:
    """Human-readable mismatches between two fingerprints (empty when
    they agree): counts and strings exactly, floats to ``rel``."""
    diffs: list[str] = []

    def walk(path: str, e, a) -> None:
        if isinstance(e, dict) and isinstance(a, dict):
            if e.keys() != a.keys():
                diffs.append(f"{path}: fields {sorted(e)} != {sorted(a)}")
                return
            for k in e:
                walk(f"{path}.{k}", e[k], a[k])
        elif isinstance(e, list) and isinstance(a, list):
            if len(e) != len(a):
                diffs.append(f"{path}: {len(e)} entries != {len(a)}")
                return
            for i, (x, y) in enumerate(zip(e, a)):
                walk(f"{path}[{i}]", x, y)
        elif not _same(e, a, rel):
            diffs.append(f"{path}: {e!r} != {a!r}")

    walk("", expected, actual)
    return diffs


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> None:
    PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
