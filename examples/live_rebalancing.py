#!/usr/bin/env python
"""Live rebalancing: the async control plane versus lock-step MinE.

The lock-step layers advance gossip and MinE in synchronized rounds; the
:mod:`repro.livesim` subsystem instead runs everything as discrete
events on one heap — gossip exchanges delayed by real RTTs, pairwise
exchanges negotiated by a propose/accept handshake, servers crashing and
rejoining — while Poisson request traffic is routed by the live,
changing allocation.

This example runs one scenario three ways and prints the ΣCi
trajectories on a shared round clock:

1. ``sync``  — classic :class:`repro.MinEOptimizer` sweeps,
2. ``async`` — the ideal event-driven plane (stale views, no losses),
3. ``churn`` — the same plane with message loss and server restarts.

Run: python examples/live_rebalancing.py
"""

import dataclasses
import os

import numpy as np

import repro
from repro.livesim import LiveSimulation, get_live_preset
from repro.workloads import cached_instance, cached_optimum, get_scenario


def main() -> None:
    m = int(os.environ.get("REPRO_EXAMPLE_M", "24"))
    rounds = 90
    sc = get_scenario("paper-planetlab")
    inst = cached_instance(sc, m, 0)
    opt_state, opt_cost, _, _ = cached_optimum(sc, m, 0)
    print(f"scenario {sc.name}, m={m}: offline optimum ΣCi = {opt_cost:.4g}\n")

    # 1. Lock-step reference: one sweep = one round.
    state = repro.AllocationState.initial(inst)
    trace = repro.MinEOptimizer(state, rng=0, strategy="exact").run(
        max_iterations=rounds, optimum=opt_cost, rel_tol=1e-6
    )
    sync_errs = trace.relative_errors(opt_cost)

    # 2+3. Event-driven planes (with a trickle of live request traffic).
    reports = {}
    for preset in ("ideal", "churn"):
        cfg = dataclasses.replace(
            get_live_preset(preset), arrival_rate_scale=0.001
        )
        sim = LiveSimulation(inst, config=cfg, seed=0, optimum=opt_state)
        reports[preset] = (sim, sim.run(rounds=rounds))

    print(f"{'round':>6} {'sync':>10} {'async':>10} {'churn':>10}")

    def err_at(report, sim, t):
        idx = np.searchsorted(report.times, t, side="right") - 1
        return report.relative_errors()[max(idx, 0)]

    for r in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, rounds):
        cells = [f"{r:>6}"]
        s_err = sync_errs[min(r, len(sync_errs) - 1)]
        cells.append(f"{s_err:>10.2e}")
        for preset in ("ideal", "churn"):
            sim, report = reports[preset]
            t = r * sim.config.agent_interval
            cells.append(f"{err_at(report, sim, t):>10.2e}")
        print(" ".join(cells))

    ideal_sim, ideal_rep = reports["ideal"]
    churn_sim, churn_rep = reports["churn"]
    interval = ideal_sim.config.agent_interval
    print(
        f"\nasync ideal: {ideal_rep.agents.exchanges} exchanges via "
        f"{ideal_rep.agents.proposals} proposals "
        f"(+{ideal_rep.agents.skipped_proposals} memoized away, "
        f"{ideal_rep.net.sent} control messages, mean view age "
        f"{ideal_rep.mean_view_age / interval:.1f} rounds), "
        f"{ideal_rep.events_per_sec:,.0f} events/s"
    )
    print(
        f"async ideal traffic: {ideal_rep.requests_completed} requests served, "
        f"mean latency {ideal_rep.request_mean_latency:.1f} ms"
    )
    reconv = churn_rep.reconvergence_times(0.02)
    lags = [
        (t_re - t_f) / interval
        for (t_f, _), t_re in zip(churn_rep.failures, reconv)
        if np.isfinite(t_re)
    ]
    print(
        f"churn plane: {len(churn_rep.failures)} server restarts, "
        f"{churn_rep.net.dropped} messages dropped; re-converged within 2% "
        f"after {len(lags)}/{len(churn_rep.failures)} failures "
        f"(mean lag {np.mean(lags):.1f} rounds)" if lags else
        f"churn plane: {len(churn_rep.failures)} server restarts"
    )
    print(
        f"\ntime-to-2%-bound: sync "
        f"{int(np.argmax(sync_errs <= 0.02))} rounds, async "
        f"{ideal_rep.time_to_within(0.02) / interval:.1f} rounds "
        f"(views stale by in-flight time, yet same fixed point — §IV)"
    )


if __name__ == "__main__":
    main()
