#!/usr/bin/env python
"""Real-time stream processing in a distributed cloud (Section I's
motivating workload) — validated on the discrete-event simulator.

A cloud of datacenters processes continuous request streams (e.g. video
frames feeding a 3-D model).  One region produces far more traffic than
its local datacenter can absorb.  We compare three routing policies under
a *streaming* (Poisson-arrival) workload on the DES:

* local-only (no offloading) — the hot datacenter melts down;
* delay-blind equal split — stabilizes the queue but pays needless WAN
  latency;
* the paper's delay-aware optimum — stable *and* latency-frugal.

Run: python examples/streaming_datacenter.py
(set REPRO_EXAMPLE_M to scale the cloud, e.g. the test suite uses 8)
"""

import os

import numpy as np

import repro


def main() -> None:
    rng = np.random.default_rng(11)
    m = int(os.environ.get("REPRO_EXAMPLE_M", "8"))

    latency_ms = repro.planetlab_like_latency(m, rng=rng)
    # work in seconds for the streaming sim: 50 ms RTT -> 0.05 s
    latency = latency_ms / 1000.0
    speeds = np.full(m, 30.0)  # each datacenter serves 30 req/s

    # demand: one hot region produces 80 req/s, others 10 req/s
    rates = np.full(m, 10.0)
    rates[0] = 80.0
    inst = repro.Instance(speeds, rates, latency)
    print(f"{m} datacenters, {speeds[0]:.0f} req/s each "
          f"(total capacity {speeds.sum():.0f} req/s), demand "
          f"{rates.sum():.0f} req/s, hot region at {rates[0]:.0f} req/s")

    policies = {
        "local-only": repro.AllocationState.initial(inst),
        "equal split": repro.AllocationState.from_fractions(
            inst, np.full((m, m), 1.0 / m)
        ),
        "delay-aware optimum": repro.solve_optimal(inst),
    }

    print(f"\n{'policy':<22}{'analytic ΣCi':>14}{'mean sojourn':>14}"
          f"{'completed':>11}")
    for name, state in policies.items():
        report = repro.simulate_stream(inst, state, horizon=120.0, rng=3)
        print(f"{name:<22}{state.total_cost():>14.2f}"
              f"{report.mean_latency:>13.3f}s{report.completed:>11d}")

    opt = policies["delay-aware optimum"]
    rho = opt.fractions()
    offloaded = 1.0 - rho[0, 0]
    print(f"\nthe optimum offloads {offloaded:.0%} of the hot region's "
          f"stream, preferring nearby datacenters:")
    order = np.argsort(latency[0])
    for j in order[:4]:
        if rho[0, j] > 0.01:
            print(f"  -> datacenter {j}: {rho[0, j]:.1%} of the stream "
                  f"({latency_ms[0, j]:.1f} ms away)")


if __name__ == "__main__":
    main()
