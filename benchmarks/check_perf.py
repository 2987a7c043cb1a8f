#!/usr/bin/env python
"""Perf-regression gate: fresh ``BENCH_*.json`` vs the committed baseline.

Run *after* the benchmark suite has written its fresh measurements to
``benchmarks/out/BENCH_*.json`` (an ignored directory; the suite never
touches the tracked baselines).  Every events/s metric present in both the
fresh file and the committed (``git show HEAD:benchmarks/...``) baseline is
compared; the script fails (exit 1) if any metric regresses by more than
``--threshold`` (default 30 %).

Machines differ: the BENCH files carry ``calibration_ops_per_sec``
readings (a plain-python loop timed in the same run), and each baseline
figure is scaled by the median of every fresh reading over the median of
every committed one before comparison, so a slower CI runner is not
mistaken for a code regression.  One reading alone is too noisy to scale
by; the script prints the readings on both sides so the spread that
remains is visible.

Usage::

    python -m pytest benchmarks/test_event_engine.py benchmarks/test_livesim.py
    python benchmarks/check_perf.py [--threshold 0.30] [--ref HEAD]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
FRESH_DIR = BENCH_DIR / "out"
FILES = (
    "BENCH_events.json",
    "BENCH_livesim.json",
    "BENCH_tracking.json",
    "BENCH_obs.json",
    "BENCH_byz.json",
)


def committed(name: str, ref: str) -> dict | None:
    """The committed version of a bench file (None if absent at ref)."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:benchmarks/{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def walk_metrics(node, prefix=""):
    """Yield (dotted-path, value) for every events/s figure in a BENCH
    tree (any numeric leaf whose key mentions events_per_sec)."""
    if isinstance(node, dict):
        for k, v in node.items():
            path = f"{prefix}.{k}" if prefix else k
            if isinstance(v, (int, float)) and "events_per_sec" in k:
                yield path, float(v)
            else:
                yield from walk_metrics(v, path)


def find_calibrations(node) -> list[float]:
    """Every calibration_ops_per_sec reading anywhere in a BENCH tree."""
    found = []
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "calibration_ops_per_sec" and isinstance(v, (int, float)):
                found.append(float(v))
            else:
                found.extend(find_calibrations(v))
    return found


def describe(readings: list[float]) -> str:
    if not readings:
        return "none"
    return (
        f"{len(readings)} readings {min(readings) / 1e6:.1f}–"
        f"{max(readings) / 1e6:.1f} M ops/s, median "
        f"{statistics.median(readings) / 1e6:.1f} M"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated fractional regression")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the committed baseline")
    args = parser.parse_args(argv)

    fresh_trees = {
        name: json.loads((FRESH_DIR / name).read_text())
        for name in FILES
        if (FRESH_DIR / name).exists()
    }
    base_trees = {name: committed(name, args.ref) for name in FILES}
    # Calibration: median of every reading on each side; fall back to 1:1.
    fresh_cals = find_calibrations(fresh_trees)
    base_cals = find_calibrations(base_trees)
    scale = (
        statistics.median(fresh_cals) / statistics.median(base_cals)
        if fresh_cals and base_cals
        else 1.0
    )
    print(f"calibration, fresh: {describe(fresh_cals)}")
    print(f"calibration, baseline: {describe(base_cals)}")
    print(f"machine-speed scale (fresh/baseline): {scale:.3f}")

    failures = []
    compared = 0
    for name in FILES:
        if name not in fresh_trees:
            print(f"  {name}: no fresh file (did the bench suite run?)")
            failures.append((name, "missing fresh file"))
            continue
        fresh = dict(walk_metrics(fresh_trees[name]))
        base_tree = base_trees[name]
        if base_tree is None:
            print(f"  {name}: no committed baseline at {args.ref}; skipping")
            continue
        base = dict(walk_metrics(base_tree))
        for path in sorted(set(fresh) & set(base)):
            expected = base[path] * scale
            ratio = fresh[path] / expected if expected > 0 else float("inf")
            compared += 1
            flag = ""
            if ratio < 1.0 - args.threshold:
                failures.append((f"{name}:{path}", f"{ratio:.2f}x of baseline"))
                flag = "  <-- REGRESSION"
            print(
                f"  {name}:{path}: {fresh[path]:12.0f} vs expected "
                f"{expected:12.0f}  ({ratio:5.2f}x){flag}"
            )

    if failures:
        print(f"\n{len(failures)} perf-gate failure(s) "
              f"(threshold {args.threshold:.0%}):")
        for where, what in failures:
            print(f"  {where}: {what}")
        return 1
    if compared == 0:
        print("no comparable events/s metrics found — baseline predates the "
              "bench format; passing")
        return 0
    print(f"\nall {compared} events/s metrics within {args.threshold:.0%} "
          "of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
