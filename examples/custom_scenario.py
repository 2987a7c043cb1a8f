#!/usr/bin/env python
"""Bring your own workload: a measured latency matrix + a custom load model.

Shows the extension points of :mod:`repro.workloads`:

1. load a *measured* RTT matrix (here: written to a temp .csv with a few
   missing pairs, completed by shortest paths exactly as the paper
   prepared the iPlane data);
2. define a custom :class:`LoadModel` (a batch-window model: loads arrive
   in bursts of whole batches);
3. register the combination as a named :class:`Scenario` and sweep it
   against a built-in preset with the same runner.

Run: python examples/custom_scenario.py
(set REPRO_EXAMPLE_M to scale the sweep, e.g. the test suite uses 8)
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.workloads import (
    Scenario,
    ScenarioRunner,
    measured_latency,
    register_scenario,
    ring_of_clusters_latency,
)


@dataclass(frozen=True)
class BatchWindowLoads:
    """Requests arrive in whole batches: ``n_i = batch · Poisson(rate)``.

    Any object with ``sample`` is a valid LoadModel — no registration
    or inheritance required.
    """

    batch: float = 25.0
    rate: float = 3.0

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return self.batch * (1.0 + rng.poisson(self.rate, size=m))


def write_measured_csv(path: str, m: int) -> None:
    """Fake a measurement campaign: a ring-of-clusters ground truth with
    15% of the pairs never measured (NaN in the CSV)."""
    rng = np.random.default_rng(2013)
    c = ring_of_clusters_latency(m, rng=rng, clusters=4)
    mask = np.triu(rng.uniform(size=(m, m)) < 0.15, 1)
    c = c.copy()
    c[mask | mask.T] = np.nan
    np.savetxt(path, c, delimiter=",")


def main() -> None:
    m = int(os.environ.get("REPRO_EXAMPLE_M", "24"))

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "measured_rtt.csv")
        write_measured_csv(csv_path, m)
        latency = measured_latency(csv_path)  # symmetrized + completed
    print(f"measured matrix: {m}×{m}, "
          f"mean RTT {latency[~np.eye(m, dtype=bool)].mean():.1f} ms")

    register_scenario(
        Scenario(
            name="measured-batch",
            topology=lambda n, *, rng=None, _c=latency: _c[:n, :n],
            load_model=BatchWindowLoads(batch=25.0, rate=3.0),
            m=m,
            description="measured RTT campaign + batch-window arrivals",
        ),
        overwrite=True,
    )

    report = ScenarioRunner(
        ["measured-batch", "paper-planetlab"],
        sizes=[m],
        seeds=[0, 1, 2],
        mine_max_iterations=30,
    ).run()

    print("\n(scenario, seed) → metrics:")
    for r in report:
        print(f"  {r.scenario:18s} seed={r.seed}  opt={r.optimal_cost:12.1f}  "
              f"MinE err={r.mine_final_error:7.4f}  PoA={r.poa_ratio:6.3f}  "
              f"sim latency={r.stream_mean_latency:7.2f} ms")

    gain = report.filter(scenario="measured-batch").column("initial_cost") / \
        report.filter(scenario="measured-batch").column("optimal_cost")
    print(f"\ncooperative balancing gain on the measured network: "
          f"{gain.mean():.2f}× cheaper than everyone-local")


if __name__ == "__main__":
    main()
