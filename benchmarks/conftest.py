"""Benchmark configuration.

Every table/figure of the paper has a bench here.  By default the grids
are trimmed so the whole suite runs in a few minutes; set ``REPRO_FULL=1``
to run the paper's complete parameter grids (matching EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

#: Fresh measurements go here (ignored by git).  The tracked
#: ``benchmarks/BENCH_*.json`` are the baseline ``check_perf.py`` diffs
#: them against; a baseline changes only by copying a file out of here.
BENCH_OUT = pathlib.Path(__file__).resolve().parent / "out"


def full_run() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


def scale_run() -> bool:
    """The m = 5000 fleet-scale benches: ~30 min of single-core wall
    clock, so they run only where ``REPRO_SCALE=1`` (the CI perf job)
    or under ``REPRO_FULL=1``, not in the tier-1 test matrix."""
    return os.environ.get("REPRO_SCALE", "0") == "1" or full_run()


#: decorator for the m = 5000 benches
scale_only = pytest.mark.skipif(
    not scale_run(),
    reason="m=5000 scale bench: set REPRO_SCALE=1 (CI perf job) to run",
)


@pytest.fixture(scope="session")
def is_full_run() -> bool:
    return full_run()


def merge_bench(name: str, section: str, payload: dict) -> None:
    """Insert/replace one section of ``BENCH_OUT / name``, keeping the
    others (shared by the bench modules so the file format cannot drift)."""
    BENCH_OUT.mkdir(exist_ok=True)
    path = BENCH_OUT / name
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
