#!/usr/bin/env python
"""CDN scenario (Section VII): content chunks of different popularity,
redundancy requirements, discrete placement.

An organizationally-distributed CDN: each ISP's front-end server receives
requests for content chunks with Zipf-distributed popularity.  Requests
can be served from any back-end; latency = network RTT + congestion.  The
pipeline is the paper's Section VII extension:

1. fractional delay-aware optimum with n_i = Σ_k p_i(k);
2. replication constraint ρ_ij ≤ 1/R (every chunk stored at R distinct
   sites for availability), solved with bounded water-filling;
3. randomized placement with exact marginals R·ρ_ij (systematic
   sampling) and discrete chunk-to-server rounding.

Run: python examples/cdn_replica_placement.py
(set REPRO_EXAMPLE_M to scale the CDN, e.g. the test suite uses 8)
"""

import os

import numpy as np

import repro

REPLICAS = 2


def main() -> None:
    rng = np.random.default_rng(7)
    m = int(os.environ.get("REPRO_EXAMPLE_M", "12"))  # CDN sites (one per ISP)

    latency = repro.planetlab_like_latency(m, rng=rng)
    speeds = repro.random_speeds(m, rng=rng)

    # Each site serves requests for 200 chunks with Zipf(1.1) popularity;
    # a chunk's "size" = its current request volume.
    chunk_popularity = 1.0 / np.arange(1, 201) ** 1.1
    task_sets = [
        repro.TaskSet(i, chunk_popularity * rng.uniform(50, 400))
        for i in range(m)
    ]
    print(f"CDN with {m} sites, {sum(t.sizes.size for t in task_sets)} chunks, "
          f"total request volume {sum(t.total for t in task_sets):.0f}")

    # ------------------------------------------------------------------
    # Fractional optimum + discrete rounding (multiple subset-sum)
    # ------------------------------------------------------------------
    opt, assignments = repro.solve_discrete(speeds, latency, task_sets)
    inst = opt.inst
    naive = repro.AllocationState.initial(inst)
    print(f"\nall-local cost:      ΣCi = {naive.total_cost():12.1f}")
    print(f"fractional optimum:  ΣCi = {opt.total_cost():12.1f}")

    total_err = sum(
        a.error(t.sizes) for a, t in zip(assignments, task_sets)
    )
    print(f"discrete rounding:   total deviation from fractional targets "
          f"= {total_err:.1f} ({total_err / inst.total_load:.2%} of volume)")

    # ------------------------------------------------------------------
    # Replication: every chunk stored at R distinct sites
    # ------------------------------------------------------------------
    rep = repro.solve_replicated(inst, REPLICAS)
    print(f"\nwith R={REPLICAS} replication: ΣCi = {rep.total_cost():12.1f} "
          f"(+{rep.total_cost() / opt.total_cost() - 1:.1%} vs unconstrained)")

    rho = rep.fractions()
    site = 0
    placements = [
        repro.sample_replica_placement(rho[site], REPLICAS, rng=rng)
        for _ in range(5)
    ]
    print(f"sample placements of site {site}'s chunks (always {REPLICAS} "
          f"distinct sites):")
    for k, p in enumerate(placements):
        print(f"  chunk {k}: sites {p.tolist()}")

    # empirical check of the marginals on a few thousand draws
    counts = np.zeros(m)
    trials = 3000
    for _ in range(trials):
        for j in repro.sample_replica_placement(rho[site], REPLICAS, rng=rng):
            counts[j] += 1
    worst = np.abs(counts / trials - REPLICAS * rho[site]).max()
    print(f"empirical inclusion frequencies match R·ρ within {worst:.3f} "
          f"({trials} draws)")


if __name__ == "__main__":
    main()
