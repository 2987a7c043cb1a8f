"""Livesim acceptance + throughput bench — ``BENCH_livesim.json``.

Three benches cover the subsystem's acceptance criteria:

* :func:`test_livesim_all_presets_converge` — on every registered
  scenario preset, the *asynchronous* control plane (zero churn, zero
  message loss) converges to a total cost within the paper's 2 % error
  bound of the offline optimum, entirely through RTT-delayed gossip and
  propose/accept handshakes.  Each preset row also records
  ``speedup_vs_pr3`` — its events/s over the PR-3 control plane's
  (generator processes, unbatched gossip, fixed agent intervals, heap
  drain), whose measurements are frozen below.
* :func:`test_livesim_churn_reconverges` — under the ``churn`` preset
  (≥5 % of servers restarting, plus message loss) the plane re-converges
  to within the bound after every failure event.
* :func:`test_livesim_m2000_scale` — the fast-path acceptance case: a
  production-sized fleet (m = 2000, ``lossy`` preset, screened partner
  proposals) converging to the same 2 % bound inside the CI budget.
  Also the batched-kernel speedup gate: its events/s must stay ≥1.5x
  the frozen PR-6 figure (calibration-normalized), recorded as
  ``speedup_vs_pr6``.
* :func:`test_livesim_m5000_scale` — the batched-kernel scale case:
  m = 5000 on the lossy preset to the same bound, asserting the
  per-proposal kernel dispatch count collapsed (≥10 candidates per
  Algorithm 1 call, from the ``agents.kernel_calls`` /
  ``agents.kernel_candidates`` counters).

All write their measurements — events/sec throughput, time-to-within-
bound per preset (in sim time and agent rounds) and cost-vs-time curves
— into ``benchmarks/out/BENCH_livesim.json`` so the perf trajectory is
tracked PR-over-PR (``benchmarks/check_perf.py`` gates regressions).
``REPRO_FULL=1`` runs each scenario at its native production size.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.livesim import LiveSimulation, get_live_preset
from repro.workloads import PRESETS, cached_instance, cached_optimum

from .conftest import full_run, merge_bench, scale_only
from .test_event_engine import calibrate_ops_per_sec

REL_TOL = 0.02  # the paper's Table I convergence bound
ROUNDS = 120 if full_run() else 80
CHURN_ROUNDS = 240 if full_run() else 160

#: m = 2000 scale case: round budget and the screened candidate count
#: (width 8 converges a hair slower in rounds but much faster in wall
#: time than the default 16 at this size).
M2000_ROUNDS_MAX = 90
M2000_SCREEN_WIDTH = 8

#: m = 5000 scale case: the default screened width (16) — the batched
#: kernel evaluates the whole candidate set in one dispatch, so the
#: wider screen costs almost nothing and converges in fewer rounds.
M5000_ROUNDS_MAX = 90
#: Minimum candidates per Algorithm 1 dispatch at m = 5000 (screen
#: width 16 yields ~16–24 per proposal; ~20 per-pair calls pre-batch).
M5000_KERNEL_BATCH_MIN = 10.0

#: The PR-6 m=2000 lossy figures (events/s and the same-run machine
#: calibration), frozen so the batched-kernel speedup survives
#: ``BENCH_livesim.json`` being overwritten with fresh numbers.
PR6_M2000 = {
    "events_per_sec": 9742.52317537061,
    "calibration_ops_per_sec": 25411470.470989317,
}
#: ISSUE-7 acceptance: the m=2000 lossy bench must run ≥1.5x the PR-6
#: events/s after calibration normalization.
M2000_MIN_SPEEDUP_VS_PR6 = 1.5

#: events/s of the PR-3 control plane on the same m=16/80-round preset
#: grid, frozen here so the recorded speedup survives the BENCH file
#: being overwritten with fresh numbers.  Measured as a same-machine,
#: same-session A/B: the PR-3 code checked out into a worktree and run
#: with the identical best-of-3 loop minutes before the PR-4 numbers
#: were recorded, so machine-speed drift cancels out of the ratio.
PR3_EVENTS_PER_SEC = {
    "paper-homogeneous": 31830.0,
    "paper-planetlab": 32877.0,
    "cdn-flashcrowd": 30618.0,
    "federation-diurnal": 30963.0,
    "datacenter-fattree": 32509.0,
    "hub-heavytail": 25348.0,
    "regional-surge": 32440.0,
}


def _size(sc) -> int:
    return sc.m if full_run() else 16


def _merge_bench(section: str, payload: dict) -> None:
    merge_bench("BENCH_livesim.json", section, payload)


def _curve(report, stride: int = 4) -> list[list[float]]:
    """The (t, ΣCi) trajectory, thinned for the JSON."""
    pts = list(zip(report.times.tolist(), report.costs.tolist()))
    return [list(p) for p in pts[::stride]] + [list(pts[-1])]


def _best_of(n: int, make_sim, rounds: int):
    """Run the same deterministic simulation ``n`` times and return the
    (sim, report) of the fastest run: the trace is identical every time,
    so the minimum wall clock is the least-interference measurement."""
    best = None
    for _ in range(n):
        sim = make_sim()
        report = sim.run(rounds=rounds)
        if best is None or report.wall_s < best[1].wall_s:
            best = (sim, report)
    return best


def test_livesim_all_presets_converge():
    rows = {}
    for sc in PRESETS:
        m = _size(sc)
        inst = cached_instance(sc, m, 0)
        opt_state, opt_cost, _, _ = cached_optimum(sc, m, 0)
        sim, report = _best_of(
            3,
            lambda: LiveSimulation(
                inst, config=get_live_preset("ideal"), seed=0, optimum=opt_state
            ),
            ROUNDS,
        )
        interval = sim.config.agent_interval
        ttw = report.time_to_within(REL_TOL)

        assert report.final_error <= REL_TOL, (
            f"{sc.name}: async MinE ended {report.final_error:.3%} above "
            f"the offline optimum (bound {REL_TOL:.0%})"
        )
        assert np.isfinite(ttw)

        pr3 = PR3_EVENTS_PER_SEC.get(sc.name) if m == 16 else None
        rows[sc.name] = {
            "m": m,
            "optimal_cost": opt_cost,
            "final_error": report.final_error,
            "time_to_bound": ttw,
            "rounds_to_bound": ttw / interval,
            "exchanges": report.agents.exchanges,
            "proposals": report.agents.proposals,
            "skipped_proposals": report.agents.skipped_proposals,
            "messages": report.net.sent,
            "events_processed": report.events_processed,
            "events_per_sec": report.events_per_sec,
            "speedup_vs_pr3": (
                report.events_per_sec / pr3 if pr3 is not None else None
            ),
            "mean_view_age_rounds": report.mean_view_age / interval,
            "cost_curve": _curve(report),
        }
        print(
            f"  {sc.name:<22} m={m:<3d} err={report.final_error:9.2e} "
            f"t_bound={ttw / interval:6.1f} rounds "
            f"ev/s={report.events_per_sec:9.0f}"
            + (f" ({report.events_per_sec / pr3:.1f}x PR-3)" if pr3 else "")
        )

    _merge_bench(
        "async_ideal",
        {"rel_tol": REL_TOL, "rounds": ROUNDS, "presets": rows},
    )


def test_livesim_churn_reconverges():
    sc = next(s for s in PRESETS if s.name == "paper-planetlab")
    m = _size(sc)
    inst = cached_instance(sc, m, 0)
    opt_state, _, _, _ = cached_optimum(sc, m, 0)
    sim, report = _best_of(
        2,
        lambda: LiveSimulation(
            inst, config=get_live_preset("churn"), seed=3, optimum=opt_state
        ),
        CHURN_ROUNDS,
    )
    interval = sim.config.agent_interval

    # Real churn happened: at least 5 % of the fleet restarted.
    assert len(report.failures) >= max(1, int(0.05 * m))
    # Failures genuinely perturbed the allocation...
    assert report.relative_errors().max() > REL_TOL
    # ...and the plane re-converged within the bound after every one.
    reconv = report.reconvergence_times(REL_TOL)
    assert all(np.isfinite(t) for t in reconv), (
        f"unrecovered failures: {[f for f, t in zip(report.failures, reconv) if not np.isfinite(t)]}"
    )
    assert report.final_error <= REL_TOL

    lags = [
        (t_re - t_f) / interval for (t_f, _), t_re in zip(report.failures, reconv)
    ]
    _merge_bench(
        "churn",
        {
            "rel_tol": REL_TOL,
            "rounds": CHURN_ROUNDS,
            "scenario": sc.name,
            "m": m,
            "restarts": len(report.failures),
            "restart_fraction": len(report.failures) / m,
            "message_drop_rate": get_live_preset("churn").p_drop,
            "reconvergence_lag_rounds_mean": float(np.mean(lags)),
            "reconvergence_lag_rounds_max": float(np.max(lags)),
            "final_error": report.final_error,
            "events_per_sec": report.events_per_sec,
            "cost_curve": _curve(report),
        },
    )
    print(
        f"  churn: {len(report.failures)} restarts "
        f"({len(report.failures) / m:.0%} of fleet), mean reconvergence "
        f"{np.mean(lags):.1f} rounds, final err {report.final_error:.2e}"
    )


def test_livesim_m2000_scale():
    """The ISSUE-4 scale acceptance case: a production-sized fleet on the
    lossy preset converges to the paper's 2 % bound in CI time.

    m = 2000 exercises every fast-path layer at once: the screened O(m)
    partner proposals (exact evaluation would cost seconds per
    proposal), the packed-ndarray gossip tables, the transposed-R
    transfer kernel and adaptive back-off.
    """
    sc = next(s for s in PRESETS if s.name == "regional-surge")
    m = 2000
    inst = cached_instance(sc, m, 0)
    opt_state, opt_cost, solve_wall, _ = cached_optimum(sc, m, 0)
    cfg = dataclasses.replace(
        get_live_preset("lossy"), agent_screen_width=M2000_SCREEN_WIDTH
    )
    sim = LiveSimulation(inst, config=cfg, seed=0, optimum=opt_state)
    # Chunked run with early exit: identical to one long run (the
    # determinism suite asserts split == long), but CI stops paying the
    # moment the bound is reached.
    report = sim.run(rounds=30)
    while report.final_error > REL_TOL and report.horizon < (
        M2000_ROUNDS_MAX * sim.config.agent_interval
    ):
        report = sim.run(rounds=10)
    interval = sim.config.agent_interval
    ttw = report.time_to_within(REL_TOL)

    assert report.net.dropped > 0  # the lossy preset really dropped messages
    assert report.final_error <= REL_TOL, (
        f"m=2000 lossy run ended {report.final_error:.3%} above the "
        f"offline optimum (bound {REL_TOL:.0%}) after "
        f"{report.horizon / interval:.0f} rounds"
    )
    assert np.isfinite(ttw)

    # The batched-kernel speedup gate: normalize the frozen PR-6 figure
    # to this machine's speed, then require >= 1.5x over it.
    cal = calibrate_ops_per_sec()
    pr6_here = PR6_M2000["events_per_sec"] * (
        cal / PR6_M2000["calibration_ops_per_sec"]
    )
    speedup_vs_pr6 = report.events_per_sec / pr6_here
    assert speedup_vs_pr6 >= M2000_MIN_SPEEDUP_VS_PR6, (
        f"m=2000 lossy ran {report.events_per_sec:.0f} ev/s vs a "
        f"calibration-normalized PR-6 baseline of {pr6_here:.0f} — only "
        f"{speedup_vs_pr6:.2f}x (need >= {M2000_MIN_SPEEDUP_VS_PR6}x)"
    )

    agents = report.agents
    _merge_bench(
        "m2000",
        {
            "scenario": sc.name,
            "m": m,
            "preset": "lossy",
            "rel_tol": REL_TOL,
            "screen_width": M2000_SCREEN_WIDTH,
            "optimal_cost": opt_cost,
            "optimum_solve_wall_s": solve_wall,
            "final_error": report.final_error,
            "rounds_to_bound": ttw / interval,
            "rounds_run": report.horizon / interval,
            "exchanges": agents.exchanges,
            "proposals": agents.proposals,
            "skipped_proposals": agents.skipped_proposals,
            "kernel_calls": agents.kernel_calls,
            "kernel_candidates": agents.kernel_candidates,
            "kernel_candidates_per_call": (
                agents.kernel_candidates / max(1, agents.kernel_calls)
            ),
            "messages": report.net.sent,
            "dropped": report.net.dropped,
            "events_processed": report.events_processed,
            "events_per_sec": report.events_per_sec,
            "speedup_vs_pr6": speedup_vs_pr6,
            "sim_wall_s": report.wall_s,
            "mean_view_age_rounds": report.mean_view_age / interval,
            "cost_curve": _curve(report, stride=16),
        },
    )
    print(
        f"  m=2000 {sc.name} lossy: err={report.final_error:.2e} at "
        f"{report.horizon / interval:.0f} rounds "
        f"(bound hit at {ttw / interval:.0f}), "
        f"{report.events_processed} events in {report.wall_s:.0f}s "
        f"({report.events_per_sec:.0f} ev/s, {speedup_vs_pr6:.2f}x PR-6)"
    )


@scale_only
def test_livesim_m5000_scale():
    """The ISSUE-7 scale acceptance case: m = 5000 on the lossy preset
    converges to the 2 % bound in CI, with the batched transfer kernel
    collapsing ~20 per-pair dispatches per proposal into one.

    Runs at the *default* screen width (16): pre-batch, m = 2000 needed
    width 8 to stay inside the CI budget; the batched kernel makes the
    wider screen nearly free, so the larger fleet still converges in a
    comparable round count.  Gossip runs at the preset's fixed interval.
    """
    sc = next(s for s in PRESETS if s.name == "regional-surge")
    m = 5000
    inst = cached_instance(sc, m, 0)
    opt_state, opt_cost, solve_wall, _ = cached_optimum(sc, m, 0)
    cfg = get_live_preset("lossy")
    sim = LiveSimulation(inst, config=cfg, seed=0, optimum=opt_state)
    report = sim.run(rounds=30)
    while report.final_error > REL_TOL and report.horizon < (
        M5000_ROUNDS_MAX * sim.config.agent_interval
    ):
        report = sim.run(rounds=10)
    interval = sim.config.agent_interval
    ttw = report.time_to_within(REL_TOL)

    assert report.net.dropped > 0
    assert report.final_error <= REL_TOL, (
        f"m=5000 lossy run ended {report.final_error:.3%} above the "
        f"offline optimum (bound {REL_TOL:.0%}) after "
        f"{report.horizon / interval:.0f} rounds"
    )
    assert np.isfinite(ttw)

    # The kernel-dispatch collapse: one batched call covers the whole
    # screened candidate set (~20 per-pair calls before this kernel).
    agents = report.agents
    batchiness = agents.kernel_candidates / max(1, agents.kernel_calls)
    assert batchiness >= M5000_KERNEL_BATCH_MIN, (
        f"batched kernel averaged {batchiness:.1f} candidates per "
        f"dispatch (need >= {M5000_KERNEL_BATCH_MIN}): the per-proposal "
        f"kernel-call collapse regressed"
    )

    _merge_bench(
        "m5000",
        {
            "scenario": sc.name,
            "m": m,
            "preset": "lossy",
            "rel_tol": REL_TOL,
            "screen_width": cfg.agent_screen_width,
            "optimal_cost": opt_cost,
            "optimum_solve_wall_s": solve_wall,
            "final_error": report.final_error,
            "rounds_to_bound": ttw / interval,
            "rounds_run": report.horizon / interval,
            "exchanges": agents.exchanges,
            "proposals": agents.proposals,
            "skipped_proposals": agents.skipped_proposals,
            "kernel_calls": agents.kernel_calls,
            "kernel_candidates": agents.kernel_candidates,
            "kernel_candidates_per_call": batchiness,
            "messages": report.net.sent,
            "dropped": report.net.dropped,
            "payload_bytes": report.gossip.payload_bytes,
            "events_processed": report.events_processed,
            "events_per_sec": report.events_per_sec,
            "sim_wall_s": report.wall_s,
            "mean_view_age_rounds": report.mean_view_age / interval,
            "cost_curve": _curve(report, stride=16),
        },
    )
    print(
        f"  m=5000 {sc.name} lossy: err={report.final_error:.2e} at "
        f"{report.horizon / interval:.0f} rounds "
        f"(bound hit at {ttw / interval:.0f}), "
        f"{report.events_processed} events in {report.wall_s:.0f}s "
        f"({report.events_per_sec:.0f} ev/s, "
        f"{batchiness:.1f} candidates/kernel call)"
    )


@scale_only
def test_livesim_m5000_split_equals_long():
    """m = 5000 determinism: a chunked run (the early-exit loop above)
    replays one long run event-for-event."""
    sc = next(s for s in PRESETS if s.name == "regional-surge")
    inst = cached_instance(sc, 5000, 0)
    cfg = get_live_preset("lossy")

    sim_long = LiveSimulation(inst, config=cfg, seed=0)
    rep_long = sim_long.run(rounds=6)
    trace_long = rep_long.trace
    R_long = sim_long.state.R.copy()
    agents_long = sim_long.agents.stats
    del sim_long  # ~1 GB of gossip tables: free before the second fleet

    sim_split = LiveSimulation(inst, config=cfg, seed=0)
    sim_split.run(rounds=3)
    rep_split = sim_split.run(rounds=3)
    assert trace_long == rep_split.trace
    np.testing.assert_array_equal(R_long, sim_split.state.R)
    assert agents_long == sim_split.agents.stats
