#!/usr/bin/env python
"""Perf-regression gate: fresh ``BENCH_*.json`` vs the committed baseline.

Run *after* the benchmark suite has written its fresh measurements to
``benchmarks/out/BENCH_*.json`` (an ignored directory; the suite never
touches the tracked baselines).  Every events/s metric present in both the
fresh file and the committed (``git show HEAD:benchmarks/...``) baseline is
compared; the script fails (exit 1) if any metric regresses by more than
``--threshold`` (default 30 %).

Machines differ: both BENCH files carry a ``calibration_ops_per_sec``
constant (a plain-python loop measured in the same run), and each baseline
figure is scaled by ``fresh_calibration / baseline_calibration`` before
comparison, so a slower CI runner is not mistaken for a code regression.

Usage::

    python -m pytest benchmarks/test_event_engine.py benchmarks/test_livesim.py
    python benchmarks/check_perf.py [--threshold 0.30] [--ref HEAD]
"""

from __future__ import annotations

import argparse
import json
import pathlib
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


def find_calibration(tree: dict) -> float | None:
    """First calibration_ops_per_sec found anywhere in the tree."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            if k == "calibration_ops_per_sec" and isinstance(v, (int, float)):
                return float(v)
        for v in tree.values():
            if isinstance(v, dict):
                got = find_calibration(v)
                if got is not None:
                    return got
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated fractional regression")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the committed baseline")
    args = parser.parse_args(argv)

    # Calibration: prefer the fresh engine-bench constant; fall back to 1:1.
    events_path = FRESH_DIR / "BENCH_events.json"
    fresh_events = (
        json.loads(events_path.read_text()) if events_path.exists() else {}
    )
    base_events = committed("BENCH_events.json", args.ref)
    fresh_cal = find_calibration(fresh_events)
    base_cal = find_calibration(base_events or {})
    scale = (fresh_cal / base_cal) if fresh_cal and base_cal else 1.0
    print(f"machine-speed scale (fresh/baseline): {scale:.3f}")

    failures = []
    compared = 0
    for name in FILES:
        fresh_path = FRESH_DIR / name
        if not fresh_path.exists():
            print(f"  {name}: no fresh file (did the bench suite run?)")
            failures.append((name, "missing fresh file"))
            continue
        fresh = dict(walk_metrics(json.loads(fresh_path.read_text())))
        base_tree = committed(name, args.ref)
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
