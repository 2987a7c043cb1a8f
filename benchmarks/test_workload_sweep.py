"""Workload sweep — throughput of the engine-driven batch runner.

Two benches:

* :func:`test_workload_sweep_all_presets` sweeps every registered preset
  through the full solver + simulator stack and reports per-cell wall
  time (the historical throughput bench).
* :func:`test_sweep_backend_speedup` runs the same 7-preset grid on the
  ``serial`` and ``process`` backends, asserts the results are
  identical, and writes ``benchmarks/out/BENCH_sweep.json`` — per-cell and
  per-solver wall times plus the parallel speedup — so the perf
  trajectory is tracked PR-over-PR.  The ≥2× speedup assertion only
  applies on machines with ≥4 cores (a single-core box cannot speed up).

The trimmed grid keeps the default suite fast; ``REPRO_FULL=1`` runs
production-sized networks.
"""

from __future__ import annotations

import json
import os
import time

from repro.workloads import PRESETS, ScenarioRunner, clear_cache

from .conftest import BENCH_OUT, full_run

SIZES = (50, 100, 200) if full_run() else (12, 20)
SEEDS = (0, 1, 2) if full_run() else (0, 1)

#: Grid of the backend-speedup bench: all 7 presets.  The full grid's
#: cells are big enough that per-cell solver work dwarfs process-pool
#: overhead, which is where the >=2x assertion applies.
SPEEDUP_SIZES = (50, 100, 200) if full_run() else (24, 40)
SPEEDUP_SEEDS = (0, 1, 2) if full_run() else (0,)


def assert_speedup() -> bool:
    """Enforce the >=2x criterion: on by default for REPRO_FULL runs
    (whose cells amortize pool startup), opt-in/out via
    ``REPRO_ASSERT_SPEEDUP`` — wall-clock asserts on tiny grids or noisy
    shared runners are a flake source, so the default suite only
    *measures*."""
    explicit = os.environ.get("REPRO_ASSERT_SPEEDUP")
    if explicit is not None:
        return explicit == "1"
    return full_run()

BENCH_PATH = BENCH_OUT / "BENCH_sweep.json"


def test_workload_sweep_all_presets(benchmark):
    names = sorted(s.name for s in PRESETS)
    runner = ScenarioRunner(
        names,
        sizes=SIZES,
        seeds=SEEDS,
        mine_max_iterations=30,
        mine_rel_tol=0.01,
        stream_events_target=1000.0,
    )
    report = benchmark.pedantic(runner.run, rounds=1, iterations=1)

    assert len(report) == len(names) * len(SIZES) * len(SEEDS)
    print()
    print(f"scenario sweep: {len(report)} cells "
          f"({len(names)} scenarios × {SIZES} × {len(SEEDS)} seeds)")
    for row in report.summary():
        print(
            f"  {row['scenario']:<22} m={row['m']:<4d} "
            f"opt={row['optimal_cost']:12.1f} "
            f"MinE err={row['mine_final_error']:7.4f} "
            f"PoA={row['poa_ratio']:6.3f} "
            f"latency={row['stream_mean_latency']:7.2f} ms"
        )
    # Every cell produced a full metric row.
    assert all(r.optimal_cost > 0 for r in report)
    assert all(r.mine_iterations >= 1 for r in report)
    assert all(r.stream_completed > 0 for r in report)
    # The distributed algorithm lands near the optimum on every scenario
    # family, not just the paper's two.
    assert max(r.mine_final_error for r in report) < 0.25

    total = sum(r.elapsed_s for r in report)
    slowest = max(report, key=lambda r: r.elapsed_s)
    print(f"  total solver time {total:.2f} s; slowest cell "
          f"{slowest.scenario} m={slowest.m} at {slowest.elapsed_s:.2f} s")


def test_sweep_backend_speedup():
    names = sorted(s.name for s in PRESETS)
    runner = ScenarioRunner(
        names,
        sizes=SPEEDUP_SIZES,
        seeds=SPEEDUP_SEEDS,
        mine_max_iterations=30,
        mine_rel_tol=0.01,
        stream_events_target=1000.0,
    )

    # Each timed run starts from a cold memo cache: forked workers would
    # otherwise inherit the serial run's warm optima and the "speedup"
    # would measure cache hits instead of parallel solving.
    clear_cache()
    t0 = time.perf_counter()
    serial = runner.run(backend="serial")
    serial_wall = time.perf_counter() - t0

    cores = os.cpu_count() or 1
    clear_cache()
    t0 = time.perf_counter()
    parallel = runner.run(backend="process")
    process_wall = time.perf_counter() - t0

    # The tentpole guarantee: where a cell runs never changes what it
    # computes (ScenarioReport equality ignores wall-clock fields).
    assert serial == parallel

    if cores >= 4 and assert_speedup():
        # Best of two on multi-core machines: the first run pays the
        # one-off interpreter/numpy warm-up in every worker, and shared
        # CI runners are noisy.
        clear_cache()
        t0 = time.perf_counter()
        again = runner.run(backend="process")
        process_wall = min(process_wall, time.perf_counter() - t0)
        assert serial == again

    speedup = serial_wall / process_wall if process_wall > 0 else float("inf")

    per_solver = {
        stage: float(sum(getattr(r, f"{stage}_s") for r in serial))
        for stage in ("optimal", "mine", "poa", "stream")
    }
    bench = {
        "bench": "test_sweep_backend_speedup",
        "full_run": full_run(),
        "cpu_count": cores,
        "grid": {
            "scenarios": names,
            "sizes": list(SPEEDUP_SIZES),
            "seeds": list(SPEEDUP_SEEDS),
            "cells": len(serial),
        },
        "serial_wall_s": serial_wall,
        "process_wall_s": process_wall,
        "speedup": speedup,
        "per_solver_wall_s": per_solver,
        "per_cell": [
            {
                "scenario": r.scenario,
                "m": r.m,
                "seed": r.seed,
                "elapsed_s": r.elapsed_s,
                "optimal_s": r.optimal_s,
                "mine_s": r.mine_s,
                "poa_s": r.poa_s,
                "stream_s": r.stream_s,
            }
            for r in serial
        ],
    }
    BENCH_OUT.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(bench, indent=1) + "\n")

    print()
    print(f"backend speedup: {len(serial)} cells on {cores} cores — "
          f"serial {serial_wall:.2f} s, process {process_wall:.2f} s "
          f"({speedup:.2f}x)")
    print(f"  per-solver serial totals: "
          + ", ".join(f"{k}={v:.2f}s" for k, v in per_solver.items()))
    print(f"  wrote {BENCH_PATH}")

    # Acceptance criterion: >=2x wall-clock on a >=4-core machine
    # (enforced on the full grid / explicit opt-in; see assert_speedup).
    if cores >= 4 and assert_speedup():
        assert speedup >= 2.0, (
            f"expected >=2x process-backend speedup on {cores} cores, "
            f"got {speedup:.2f}x"
        )
