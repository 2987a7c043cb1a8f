#!/usr/bin/env python
"""A federation of selfish datacenters (Section V): price of anarchy.

Each datacenter offloads its own compute jobs to minimize only its own
average completion time.  The example runs best-response dynamics to a
Nash equilibrium, verifies the Lemma 3 load-spread bound, and compares
the measured cost of selfishness against the Theorem 1 window on a
homogeneous network — then repeats on a heterogeneous (PlanetLab-like)
one, where the paper's experiments (Table III) found the loss even lower.

Run: python examples/cloud_federation_selfish.py
(set REPRO_EXAMPLE_M to scale both federations, e.g. the test suite uses 8)
"""

import os

import numpy as np

import repro


def homogeneous_case(m: int) -> None:
    print("=== homogeneous federation (Theorem 1 territory) ===")
    speed, delay, lav = 1.0, 2.0, 100.0
    rng = np.random.default_rng(1)
    loads = rng.uniform(0.0, 2 * lav, m)  # bursty demand
    inst = repro.Instance.homogeneous(m, speed=speed, delay=delay, loads=loads)

    ratio, ne, opt = repro.price_of_anarchy(inst, rng=0, tol_change=1e-4)
    lo = repro.poa_lower_bound(inst)
    hi = repro.poa_upper_bound(inst)
    print(f"measured cost of selfishness: {ratio:.4f}")
    print(f"Theorem 1 PoA window:         [{lo:.4f}, {hi:.4f}] "
          f"(2cs/lav = {2 * delay * speed / inst.average_load:.4f})")
    print("(the PoA bounds the *worst* equilibrium; best-response dynamics"
          " may land on a better one, below the window)")
    spread = ne.loads.max() - ne.loads.min()
    print(f"Lemma 3: max load spread {spread:.2f} ≤ c·s = "
          f"{repro.lemma3_bound(inst):.2f} -> "
          f"{'holds' if repro.lemma3_violation(inst, ne) <= 1e-6 else 'VIOLATED'}")
    print(f"Nash gap (certificate):       {repro.nash_gap(inst, ne):.2e}\n")


def heterogeneous_case(m: int) -> None:
    print("=== heterogeneous federation (Table III territory) ===")
    rng = np.random.default_rng(2)
    inst = repro.Instance(
        speeds=repro.random_speeds(m, rng=rng),
        loads=rng.exponential(50.0, m),
        latency=repro.planetlab_like_latency(m, rng=rng),
    )
    ne, trace = repro.best_response_dynamics(inst, rng=0, tol_change=0.01)
    opt = repro.solve_optimal(inst)
    ratio = ne.total_cost() / opt.total_cost()
    print(f"best-response dynamics converged in {trace.rounds} rounds")
    print(f"selfish equilibrium:  ΣCi = {ne.total_cost():12.1f}")
    print(f"cooperative optimum:  ΣCi = {opt.total_cost():12.1f}")
    print(f"cost of selfishness:  {ratio:.4f}  "
          f"(paper's Table III: < 1.15 everywhere)")

    # who wins, who loses under selfishness?
    ci_ne = ne.per_org_cost()
    ci_opt = opt.per_org_cost()
    winners = int((ci_ne < ci_opt * 0.999).sum())
    losers = int((ci_ne > ci_opt * 1.001).sum())
    print(f"organizations better off selfish: {winners}, worse off: {losers} "
          f"(of {m})")


def main() -> None:
    homogeneous_case(int(os.environ.get("REPRO_EXAMPLE_M", "12")))
    heterogeneous_case(int(os.environ.get("REPRO_EXAMPLE_M", "20")))


if __name__ == "__main__":
    main()
