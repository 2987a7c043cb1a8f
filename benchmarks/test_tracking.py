"""Tracking-plane acceptance + throughput bench — ``BENCH_tracking.json``.

These benches cover the ``repro.tracking`` acceptance criteria:

* :func:`test_tracking_trace_families` — on every built-in trace family
  the live control plane (lossy preset, delta gossip) re-tracks to the
  paper's 2 % bound after every epoch shift; per-family regret,
  retrack-time and events/s rows feed the perf gate.
* :func:`test_tracking_warm_vs_cold_m500` — the stateful-solver
  acceptance case: on a drifting m = 500 fleet the warm-start solver
  re-tracks each epoch with **≥3x fewer exchanges** than the
  cold-restart control, and the live m = 500 lossy plane re-tracks every
  epoch of the sigma = 0.35 ``drift`` trace, each of which starts
  outside the bound.
* :func:`test_delta_gossip_payload_m2000` — the wire-format acceptance
  case: at m = 2000 (lossy preset, including a mid-run demand shift)
  delta gossip is bit-identical to full-table gossip while shipping
  **≤20 % of its payload bytes**.
* :func:`test_tracking_m5000_drift` — the batched-kernel scale case
  (``REPRO_SCALE=1``, the CI perf job): a m = 5000 live plane (lossy,
  delta gossip, screened batched proposals) re-tracks every
  epoch of a sigma = 0.35 demand drift to the 2 % bound.

Measurements land in ``benchmarks/out/BENCH_tracking.json``;
``benchmarks/check_perf.py`` gates the events/s figures against the
committed baseline (calibration-normalized).  ``REPRO_FULL=1`` scales
the family grid to native scenario sizes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.livesim import LiveSimulation, get_live_preset
from repro.tracking import TrackingSimulation, tracking_sweep, trace_epochs
from repro.workloads import cached_instance, get_scenario

from .conftest import full_run, merge_bench, scale_only

REL_TOL = 0.02  # the paper's Table I convergence bound

#: family -> scenario whose topology/speeds host the trace
FAMILY_SCENARIOS = {
    "drift": "regional-surge",
    "regime": "cdn-flashcrowd",
    "flash-replay": "paper-planetlab",
    "diurnal": "federation-diurnal",
}

#: m = 500 stateful-solver acceptance case.  The live plane runs the
#: sigma = 0.35 ``drift`` family: ``drift-mild`` shifts start most epochs
#: inside the bound, where re-tracking holds with zero rounds.
M500 = 500
M500_TRACE = "drift-mild"
M500_LIVE_TRACE = "drift"
WARM_VS_COLD_MIN_RATIO = 3.0

#: m = 2000 delta-gossip acceptance case
M2000 = 2000
M2000_ROUNDS = 4           #: rounds before and after the demand shift
DELTA_MAX_BYTES_FRACTION = 0.20

#: m = 5000 batched-kernel tracking case.  Epoch 0 starts all-local and
#: needs the full cold convergence budget; the drift epochs start from a
#: converged plane and only have to absorb one sigma = 0.35 shift each
#: (the ``drift`` family's step — mild sigma = 0.1 steps average out at
#: m = 5000 and never leave the bound, which would make re-tracking
#: trivially true).
M5000 = 5000
M5000_TRACE = "drift"
M5000_EPOCH0_ROUNDS = 90.0
M5000_DRIFT_ROUNDS = 50.0
M5000_KERNEL_BATCH_MIN = 10.0  #: candidates folded into each dispatch


def _merge_bench(section: str, payload: dict) -> None:
    merge_bench("BENCH_tracking.json", section, payload)


def test_tracking_trace_families():
    m = None if full_run() else 16
    cfg = dataclasses.replace(get_live_preset("lossy"), gossip_mode="delta")
    rows = {}
    for family, sc_name in FAMILY_SCENARIOS.items():
        sc = get_scenario(sc_name)
        size = sc.m if m is None else m
        inst = cached_instance(sc, size, 0)
        sim = TrackingSimulation(inst, family, config=cfg, seed=0, rel_tol=REL_TOL)
        report = sim.run()

        stuck = [
            e.index for e in report.epochs if not np.isfinite(e.retrack_rounds)
        ]
        assert report.all_retracked(), (
            f"{family}: epochs {stuck} never re-tracked to {REL_TOL:.0%}"
        )
        assert report.mean_final_error <= REL_TOL

        rows[family] = {
            "scenario": sc_name,
            "m": size,
            "epochs": len(report.epochs),
            "mean_final_error": report.mean_final_error,
            "max_final_error": report.max_final_error,
            "mean_retrack_rounds": float(
                np.mean([e.retrack_rounds for e in report.epochs])
            ),
            "max_retrack_rounds": float(
                np.max([e.retrack_rounds for e in report.epochs])
            ),
            "mean_regret": float(np.mean([e.mean_regret for e in report.epochs])),
            "cumulative_excess_cost": report.cumulative_excess_cost,
            "total_exchanges": report.total_exchanges,
            "events_per_sec": report.live.events_per_sec,
            "payload_bytes": report.live.gossip.payload_bytes,
            "per_epoch": [
                {
                    "optimum": e.optimum_cost,
                    "start_error": e.start_error,
                    "final_error": e.final_error,
                    "retrack_rounds": e.retrack_rounds,
                    "exchanges": e.exchanges,
                }
                for e in report.epochs
            ],
        }
        print(
            f"  {family:<14} m={size:<4d} epochs={len(report.epochs):<3d} "
            f"retrack={rows[family]['mean_retrack_rounds']:5.1f}r "
            f"err={report.mean_final_error:.2e} "
            f"ev/s={report.live.events_per_sec:9.0f}"
        )

    _merge_bench("families", {"rel_tol": REL_TOL, "presets": rows})


def test_tracking_warm_vs_cold_m500():
    """Warm-start vs cold-restart stateful solvers on a drifting m = 500
    fleet, plus the live lossy plane re-tracking the stronger ``drift``
    trace, whose every shift leaves the bound."""
    sc = get_scenario("regional-surge")

    # Offline plane: the two stateful solvers through the sweep engine.
    rows = tracking_sweep(
        [sc], traces=[M500_TRACE], sizes=[M500], seeds=[0],
        solvers=("mine-warm", "mine-cold"), rel_tol=REL_TOL, max_sweeps=40,
    )
    warm, cold = rows
    assert warm["all_retracked"], "warm-start failed to re-track an epoch"
    assert cold["all_retracked"], "cold-restart failed to re-track an epoch"
    ratio = cold["mean_step_exchanges"] / warm["mean_step_exchanges"]
    assert ratio >= WARM_VS_COLD_MIN_RATIO, (
        f"warm-start used {warm['mean_step_exchanges']:.0f} exchanges per "
        f"epoch shift vs cold's {cold['mean_step_exchanges']:.0f} — only "
        f"{ratio:.2f}x better (need >= {WARM_VS_COLD_MIN_RATIO}x)"
    )

    # Live plane: event-driven agents on a drifting trace, lossy preset,
    # delta gossip, screened proposals (the fleet-scale configuration).
    cfg = dataclasses.replace(
        get_live_preset("lossy"), gossip_mode="delta", agent_strategy="screened"
    )
    inst = cached_instance(sc, M500, 0)
    sim = TrackingSimulation(
        inst, M500_LIVE_TRACE, config=cfg, seed=0, rel_tol=REL_TOL
    )
    report = sim.run()
    assert report.all_retracked(), (
        "live m=500 lossy plane failed to re-track after a shift"
    )
    # Every shift must knock the plane out of the bound, or re-tracking
    # it proves nothing.
    for e in report.epochs[1:]:
        assert e.start_error > REL_TOL, (
            f"epoch {e.index} started at {e.start_error:.2%} — inside the "
            f"bound, so 're-tracking' it proves nothing"
        )

    _merge_bench(
        "warmcold_m500",
        {
            "scenario": sc.name,
            "m": M500,
            "trace": M500_TRACE,
            "rel_tol": REL_TOL,
            "warm_step_exchanges": warm["mean_step_exchanges"],
            "cold_step_exchanges": cold["mean_step_exchanges"],
            "exchange_ratio": ratio,
            "warm_mean_error": warm["mean_error"],
            "cold_mean_error": cold["mean_error"],
            "warm_wall_s": warm["solve_wall_s"],
            "cold_wall_s": cold["solve_wall_s"],
            "live_preset": "lossy+delta",
            "live_trace": M500_LIVE_TRACE,
            "live_mean_retrack_rounds": float(
                np.mean([e.retrack_rounds for e in report.epochs])
            ),
            "live_mean_final_error": report.mean_final_error,
            "live_events_per_sec": report.live.events_per_sec,
        },
    )
    print(
        f"  m=500 {M500_TRACE}: warm {warm['mean_step_exchanges']:.0f} vs "
        f"cold {cold['mean_step_exchanges']:.0f} exchanges/shift "
        f"({ratio:.1f}x); live {M500_LIVE_TRACE} retrack "
        f"{np.mean([e.retrack_rounds for e in report.epochs]):.1f} rounds"
    )


def test_delta_gossip_payload_m2000():
    """Full vs delta wire format at m = 2000 across a demand shift:
    bit-identical behavior, ≤20 % of the payload bytes."""
    sc = get_scenario("regional-surge")
    inst = cached_instance(sc, M2000, 0)
    shifted = next(
        loads for t, loads in trace_epochs("drift-mild", M2000, 0) if t > 0
    )
    base_cfg = get_live_preset("lossy")

    reports = {}
    for mode in ("full", "delta"):
        cfg = dataclasses.replace(base_cfg, gossip_mode=mode)
        sim = LiveSimulation(inst, config=cfg, seed=0)
        sim.run(rounds=M2000_ROUNDS)
        pre_bytes = sim.gossip.stats.payload_bytes
        sim.apply_demand(shifted)
        report = sim.run(rounds=M2000_ROUNDS)
        reports[mode] = {
            "payload_bytes": report.gossip.payload_bytes,
            "payload_bytes_post_shift": report.gossip.payload_bytes - pre_bytes,
            "payload_entries": report.gossip.payload_entries,
            "events_processed": report.events_processed,
            "events_per_sec": report.events_per_sec,
            "trace": report.trace,
            "R": sim.state.R.copy(),
            "values": np.asarray(sim.gossip.values).copy(),
        }
        del sim  # 100+ MB of gossip tables per mode: free eagerly

    full, delta = reports["full"], reports["delta"]
    assert full["trace"] == delta["trace"], "delta diverged from full mode"
    np.testing.assert_array_equal(full["R"], delta["R"])
    np.testing.assert_array_equal(full["values"], delta["values"])
    frac = delta["payload_bytes"] / full["payload_bytes"]
    assert frac <= DELTA_MAX_BYTES_FRACTION, (
        f"delta gossip shipped {frac:.1%} of full-table payload bytes "
        f"(bound {DELTA_MAX_BYTES_FRACTION:.0%})"
    )

    _merge_bench(
        "delta_gossip_m2000",
        {
            "scenario": sc.name,
            "m": M2000,
            "preset": "lossy",
            "rounds": 2 * M2000_ROUNDS,
            "demand_shift_trace": M500_TRACE,
            "payload_bytes_full": full["payload_bytes"],
            "payload_bytes_delta": delta["payload_bytes"],
            "payload_fraction": frac,
            "payload_fraction_post_shift": (
                delta["payload_bytes_post_shift"]
                / full["payload_bytes_post_shift"]
            ),
            "payload_entries_full": full["payload_entries"],
            "payload_entries_delta": delta["payload_entries"],
            "events_per_sec_full": full["events_per_sec"],
            "events_per_sec_delta": delta["events_per_sec"],
        },
    )
    print(
        f"  m=2000 lossy: delta ships {frac:.1%} of full payload bytes "
        f"({delta['payload_bytes'] / 2**20:.0f} vs "
        f"{full['payload_bytes'] / 2**20:.0f} MiB across "
        f"{2 * M2000_ROUNDS} rounds + demand shift); "
        f"ev/s {delta['events_per_sec']:.0f} vs {full['events_per_sec']:.0f}"
    )


@scale_only
def test_tracking_m5000_drift():
    """Per-epoch re-tracking at m = 5000 under the fleet-scale config
    (lossy network, delta gossip, screened batched agents).

    The built-in traces use uniform epoch grids, but at m = 5000 epoch 0
    must first converge *cold* from the all-local allocation (~70 agent
    rounds) while the drift epochs re-track a mild shift in a handful of
    rounds — so the epoch list is hand-timed: one long cold epoch, two
    short drift epochs, all using the deterministic ``drift`` family's
    load vectors (sigma = 0.35 steps, strong enough to knock a converged
    m = 5000 plane out of the bound).  Asserts every epoch re-enters the 2 % bound before it ends
    and that proposals stay batched (≥10 candidates per kernel call).
    """
    sc = get_scenario("regional-surge")
    inst = cached_instance(sc, M5000, 0)
    drift_loads = [loads for _, loads in trace_epochs(M5000_TRACE, M5000, 0)]
    spec = [
        (0.0, drift_loads[0]),
        (M5000_EPOCH0_ROUNDS, drift_loads[1]),
        (M5000_EPOCH0_ROUNDS + M5000_DRIFT_ROUNDS, drift_loads[2]),
    ]
    cfg = dataclasses.replace(
        get_live_preset("lossy"),
        gossip_mode="delta",
        agent_strategy="screened",
    )
    sim = TrackingSimulation(
        inst, spec, config=cfg, seed=0, rel_tol=REL_TOL,
        tail_rounds=M5000_DRIFT_ROUNDS,
    )
    report = sim.run()

    stuck = [e.index for e in report.epochs if not np.isfinite(e.retrack_rounds)]
    assert report.all_retracked(), (
        f"m=5000 epochs {stuck} never re-tracked to {REL_TOL:.0%}"
    )
    assert report.mean_final_error <= REL_TOL
    # The drift epochs must be non-trivial: each shift actually knocks
    # the converged plane out of the bound before it re-tracks.
    for e in report.epochs[1:]:
        assert e.start_error > REL_TOL, (
            f"epoch {e.index} started at {e.start_error:.2%} — inside the "
            f"bound, so 're-tracking' it proves nothing"
        )
    agents = report.live.agents
    batchiness = agents.kernel_candidates / max(1, agents.kernel_calls)
    assert batchiness >= M5000_KERNEL_BATCH_MIN, (
        f"batched kernel averaged {batchiness:.1f} candidates per dispatch "
        f"at m=5000 (need >= {M5000_KERNEL_BATCH_MIN:.0f})"
    )

    _merge_bench(
        "m5000",
        {
            "scenario": sc.name,
            "m": M5000,
            "trace": f"{M5000_TRACE} (hand-timed epochs)",
            "preset": "lossy+delta",
            "rel_tol": REL_TOL,
            "epochs": len(report.epochs),
            "epoch_rounds": [e.duration_rounds for e in report.epochs],
            "mean_final_error": report.mean_final_error,
            "max_final_error": report.max_final_error,
            "start_errors": [e.start_error for e in report.epochs],
            "retrack_rounds": [e.retrack_rounds for e in report.epochs],
            "mean_regret": float(
                np.mean([e.mean_regret for e in report.epochs])
            ),
            "cumulative_excess_cost": report.cumulative_excess_cost,
            "total_exchanges": report.total_exchanges,
            "events_per_sec": report.live.events_per_sec,
            "payload_bytes": report.live.gossip.payload_bytes,
            "kernel_calls": agents.kernel_calls,
            "kernel_candidates": agents.kernel_candidates,
            "kernel_candidates_per_call": batchiness,
        },
    )
    print(
        f"  m=5000 drift: retrack "
        f"{[round(e.retrack_rounds, 1) for e in report.epochs]} rounds, "
        f"err={report.mean_final_error:.2e}, "
        f"{batchiness:.1f} cand/kernel-call, "
        f"ev/s={report.live.events_per_sec:.0f}"
    )
