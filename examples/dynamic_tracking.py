#!/usr/bin/env python
"""Tracking dynamically changing loads (the abstract's operational claim).

"During the experimental evaluation, we show that the distributed
algorithm is efficient, therefore it can be used in networks with
dynamically changing loads."  This example makes that concrete with
:func:`repro.tracking.tracking_sweep`: demand follows a day of diurnal
waves (``diurnal``) and one flash-crowd incident (``flash-replay``), and
each epoch is re-tracked to within 2 % of its optimum either by
warm-starting MinE from the previous epoch's routing fractions
(``mine-warm``) or by solving from scratch (``mine-cold``).

Run: python examples/dynamic_tracking.py
(set REPRO_EXAMPLE_M to scale the fleet, e.g. the test suite uses 8)
"""

import os

from repro.tracking import tracking_sweep

TRACES = ("diurnal", "flash-replay")
SOLVERS = ("mine-warm", "mine-cold")


def main() -> None:
    m = int(os.environ.get("REPRO_EXAMPLE_M", "32"))
    rows = tracking_sweep(
        ["paper-planetlab"], traces=TRACES, solvers=SOLVERS, sizes=[m], seeds=[0]
    )
    print(f"{m} servers on PlanetLab-like RTTs; every epoch re-tracked to "
          f"the 2 % bound\n")
    print(f"{'trace':<13}{'solver':<11}{'epochs':>7}{'retracked':>10}"
          f"{'mean err':>10}{'worst':>8}{'exch/re-track':>15}")
    for r in rows:
        print(f"{r['trace']:<13}{r['solver']:<11}{r['epochs']:>7}"
              f"{r['retracked_epochs']:>10}{r['mean_error']:>10.2%}"
              f"{r['max_error']:>8.2%}{r['mean_step_exchanges']:>15.1f}")

    print()
    by_cell = {(r["trace"], r["solver"]): r for r in rows}
    for trace in TRACES:
        warm = by_cell[trace, "mine-warm"]["mean_step_exchanges"]
        cold = by_cell[trace, "mine-cold"]["mean_step_exchanges"]
        print(f"{trace}: the warm start re-tracks a demand shift with "
              f"{warm:.1f} pairwise exchanges, a cold restart needs {cold:.1f}")


if __name__ == "__main__":
    main()
