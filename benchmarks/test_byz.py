"""Byzantine robustness benches — ``BENCH_byz.json``.

Two sections, refreshed every bench run:

1. **Degradation curves.**  ``error_vs_f`` per preset with the robust
   merge on (flat and under the bound up to ``f_max``), plus the legacy
   merge's error at ``f_max`` — the headline number showing what the
   robust merge buys.  Under ``REPRO_FULL=1`` the sweep extends past
   ``f_max`` to record where even the robust merge breaks (colluding
   quorums), rather than hiding it.

2. **Robust-merge overhead.**  The same honest run (no adversaries)
   under ``merge_mode="legacy"`` vs ``"robust"``; best-of-N events/s
   for both go through the perf gate (``check_perf.py`` compares every
   ``events_per_sec`` key), so neither the legacy fast path nor the
   claim-buffer machinery can silently regress.
"""

from __future__ import annotations

from repro.byz import BYZ_PRESETS, error_vs_f, get_byz_preset, run_byz
from repro.livesim import LiveConfig, LiveSimulation
from repro.workloads import cached_instance, get_scenario

from .conftest import full_run, merge_bench
from .test_event_engine import calibrate_ops_per_sec

BENCH = "BENCH_byz.json"

#: trimmed default grid: one self-lie model and one third-party-forgery
#: model; REPRO_FULL=1 sweeps the whole registered family.
_QUICK_PRESETS = ("byzantine-stale", "byzantine-fabricator")


def test_byz_error_vs_f_curves():
    names = (
        [p.name for p in BYZ_PRESETS] if full_run() else list(_QUICK_PRESETS)
    )
    curves = {}
    for name in names:
        p = get_byz_preset(name)
        tail = 2 if full_run() else 0
        fs = tuple(range(p.f_max + 1 + tail))
        robust = error_vs_f(p, fs=fs, robust=True)
        legacy = run_byz(p, f=p.f_max, robust=False)
        for f in range(p.f_max + 1):
            assert robust[f] <= p.error_bound, (
                f"{name}: robust error {robust[f]:.4f} at f={f}"
            )
        assert legacy.error > p.error_bound, (
            f"{name}: legacy merge no longer fails at f={p.f_max}"
        )
        curves[name] = {
            "f_max": p.f_max,
            "error_bound": p.error_bound,
            "rounds": p.rounds,
            "robust": {str(f): robust[f] for f in fs},
            "legacy_at_f_max": legacy.error,
        }
    merge_bench(BENCH, "error_vs_f", curves)


def test_byz_robust_merge_overhead():
    """Honest-run throughput cost of the claim-buffer merge path."""
    m = 500 if full_run() else 200
    rounds = 20 if full_run() else 12
    inst = cached_instance(get_scenario("paper-planetlab"), m, 0)

    def make(mode):
        return LiveSimulation(
            inst, config=LiveConfig(merge_mode=mode), seed=0
        )

    make("legacy").run(rounds=rounds)  # untimed warm-up
    rep_legacy = rep_robust = None
    for k in range(4):
        pair = [("legacy", rep_legacy), ("robust", rep_robust)]
        if k % 2:
            pair.reverse()
        for mode, _ in pair:
            rep = make(mode).run(rounds=rounds)
            if mode == "legacy":
                if rep_legacy is None or rep.wall_s < rep_legacy.wall_s:
                    rep_legacy = rep
            else:
                if rep_robust is None or rep.wall_s < rep_robust.wall_s:
                    rep_robust = rep

    # The robust path may cost real throughput, but the bench fails
    # loudly if it ever makes the simulator pathologically slow.
    assert rep_robust.events_per_sec > 0.1 * rep_legacy.events_per_sec
    merge_bench(
        BENCH,
        "robust_merge_overhead",
        {
            "m": m,
            "rounds": rounds,
            "events_per_sec_legacy": rep_legacy.events_per_sec,
            "events_per_sec_robust": rep_robust.events_per_sec,
            "robust_overhead_frac": 1.0
            - rep_robust.events_per_sec / rep_legacy.events_per_sec,
            "calibration_ops_per_sec": calibrate_ops_per_sec(),
        },
    )
