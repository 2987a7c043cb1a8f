#!/usr/bin/env python
"""Fully distributed operation: gossip + MinE + negative-cycle removal.

The scenario behind Figure 2: one organization suddenly owns a huge pile
of requests (a traffic peak) in a large network.  No central coordinator
exists — load information spreads by push–pull gossip, every server runs
Algorithm 2 against its *gossiped* view, and the appendix's min-cost-flow
pass periodically rewires relays.  The example traces ΣCi, the gossip
staleness and the Proposition 1 error certificate per iteration.

Run: python examples/gossip_peak_offload.py
(set REPRO_EXAMPLE_M to scale the network, e.g. the test suite uses 8)
"""

import os

import numpy as np

import repro


def main() -> None:
    rng = np.random.default_rng(23)
    m = int(os.environ.get("REPRO_EXAMPLE_M", "60"))

    loads = np.zeros(m)
    loads[int(rng.integers(0, m))] = 100_000.0  # the peak (paper §VI-A)
    inst = repro.Instance(
        speeds=repro.random_speeds(m, rng=rng),
        loads=loads,
        latency=repro.planetlab_like_latency(m, rng=rng),
    )
    opt_cost = repro.solve_optimal(inst).total_cost()

    state = repro.AllocationState.initial(inst)
    gossip = repro.GossipNetwork(m, rng=1)
    gossip.publish_all(state.loads)
    gossip.rounds_to_convergence()

    optimizer = repro.MinEOptimizer(
        state, rng=2, load_view=gossip.view, cycle_removal_every=4
    )
    gossip_rounds = int(np.ceil(np.log2(m))) + 1

    print(f"peak of 100k requests on one of {m} servers; "
          f"optimum ΣCi = {opt_cost:.3g}\n")
    print(f"{'iter':>4} {'ΣCi':>12} {'rel.err':>9} {'staleness':>10} "
          f"{'err bound':>12}")
    for it in range(1, 16):
        stats = optimizer.sweep()
        gossip.publish_all(state.loads)
        for _ in range(gossip_rounds):
            gossip.round()
        rel = (stats.cost_after - opt_cost) / opt_cost
        bound = repro.error_bound(inst, state)
        print(f"{it:>4} {stats.cost_after:>12.4g} {rel:>9.5f} "
              f"{gossip.staleness():>10.3f} {bound:>12.4g}")
        if rel < 1e-4:
            break

    spread = state.loads
    print(f"\nfinal load spread: min={spread.min():.0f}, "
          f"median={np.median(spread):.0f}, max={spread.max():.0f} "
          f"(started with one server at 100000)")


if __name__ == "__main__":
    main()
