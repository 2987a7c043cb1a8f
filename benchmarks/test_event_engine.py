"""Event-engine micro-benchmark — ``BENCH_events.json``.

Measures the one event loop of :mod:`repro.sim.events`: events/s of a
self-rescheduling ``call_in`` storm that holds the pending set at 512,
2 048 and 8 192 events — the range real runs reach (the repository
benchmark's traced runs peak at 2 418 pending on track-drift-m500 and
8 420 on converge-m2000).  Each size reports the median and the
interquartile spread over a few repeats, plus a machine-speed
calibration constant, in ``benchmarks/out/BENCH_events.json``.
``benchmarks/check_perf.py`` diffs the fresh events/s against the
committed ``benchmarks/BENCH_events.json`` and scales every baseline by
the calibration ratio, so a slower runner is not mistaken for a code
regression.
"""

from __future__ import annotations

import time

import numpy as np

from repro.sim.events import Environment

from .conftest import merge_bench

LOOP_EVENTS = 100_000
LOOP_PENDING = (512, 2048, 8192)
REPEATS = 5
CALIBRATION_REPEATS = 7


def calibrate_ops_per_sec(n: int = 2_000_000) -> float:
    """Machine-speed constant: plain-python loop iterations per second,
    the median over ``CALIBRATION_REPEATS`` timed loops (one loop alone
    swings by a third between processes).  Recorded next to every
    events/s figure so the regression check can compare runs from
    differently-provisioned machines."""
    rates = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        x = 0
        for i in range(n):
            x += i
        rates.append(n / (time.perf_counter() - t0))
    return float(np.median(rates))


def _drive_loop(n_pending: int, total: int) -> float:
    """Self-rescheduling callback storm with a deterministic
    pseudo-random delay pattern and ``n_pending`` events pending
    throughout; returns events/s of ``run()``."""
    env = Environment()
    count = [0]

    def tick(i):
        count[0] += 1
        if count[0] + n_pending <= total:
            env.call_in(1.0 + ((i * 2654435761) & 1023) / 1024.0, tick, i)

    for i in range(n_pending):
        env.call_at(1.0 + i / n_pending, tick, i)
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    assert env.processed == total and env.queue_size == 0
    return total / wall


def test_callback_loop():
    rows = {}
    for n_pending in LOOP_PENDING:
        rates = [_drive_loop(n_pending, LOOP_EVENTS) for _ in range(REPEATS)]
        q1, median, q3 = np.percentile(rates, [25, 50, 75])
        rows[str(n_pending)] = {
            "events_per_sec": float(median),
            "iqr_frac": float((q3 - q1) / median),
        }
        print(
            f"  pending={n_pending:5d}: {median:9.0f} ev/s "
            f"(IQR {100 * (q3 - q1) / median:.1f} %)"
        )
    merge_bench(
        "BENCH_events.json",
        "callback_loop",
        {
            "events": LOOP_EVENTS,
            "repeats": REPEATS,
            "by_pending": rows,
            "calibration_ops_per_sec": calibrate_ops_per_sec(),
        },
    )
