"""Warm-started re-optimization under dynamically changing loads.

The paper's abstract promises that "the distributed algorithm is
efficient, therefore it can be used in networks with dynamically changing
loads": because MinE converges in a handful of iterations, it can track a
drifting workload by running a few sweeps per epoch instead of resolving
from scratch.  This module holds the two primitives that
:mod:`repro.tracking` builds that tracking on (its traces, the
``mine-warm`` stateful solver and :func:`repro.tracking.tracking_sweep`):

* :func:`retarget_allocation` / :func:`retarget_rows` — the warm start:
  re-apply an allocation's routing *fractions* to a new demand vector,
  preserving where each organization sends its work;
* :func:`reoptimize` — exchange-budget-capped incremental MinE: run
  sweeps on an existing (typically retargeted) allocation until it
  re-tracks to a relative bound against the epoch's optimum, the
  improvement stalls, or the exchange budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributed import MinEOptimizer
from .instance import Instance
from .state import AllocationState

__all__ = [
    "retarget_rows",
    "retarget_allocation",
    "ReoptimizeResult",
    "reoptimize",
]


def retarget_rows(R: np.ndarray, old_loads: np.ndarray, new_loads: np.ndarray) -> None:
    """Rescale the request matrix ``R`` *in place* so row ``i`` sums to
    ``new_loads[i]`` while keeping its routing fractions.

    Rows whose previous demand was zero have no fractions to preserve;
    they fall back to the all-local convention (``r_ii = n_i``).
    """
    old = np.asarray(old_loads, dtype=np.float64)
    new = np.asarray(new_loads, dtype=np.float64)
    pos = old > 0
    scale = np.where(pos, new / np.where(pos, old, 1.0), 0.0)
    R *= scale[:, None]
    for i in np.flatnonzero(~pos):
        R[i, i] = new[i]


def retarget_allocation(state: AllocationState, inst: Instance) -> AllocationState:
    """A fresh :class:`AllocationState` on ``inst`` that re-applies
    ``state``'s routing fractions to ``inst``'s demand (the warm start of
    every incremental re-solve).  ``inst`` must share ``state``'s server
    count; speeds/latencies are free to differ."""
    if inst.m != state.inst.m:
        raise ValueError(
            f"cannot retarget an m={state.inst.m} allocation onto m={inst.m}"
        )
    R = state.R.copy()
    retarget_rows(R, state.inst.loads, inst.loads)
    return AllocationState(inst, R, validate=False)


@dataclass
class ReoptimizeResult:
    """What one :func:`reoptimize` call did."""

    sweeps: int
    exchanges: int
    #: Cumulative exchange count when the relative bound was first met
    #: (``nan`` when it never was, or no optimum was supplied).
    exchanges_to_bound: float
    moved: float
    cost: float
    converged: bool
    #: Algorithm 1 kernel dispatches made by the re-solve and the total
    #: candidate count they covered (candidates/calls = batching factor).
    kernel_calls: int = 0
    kernel_candidates: int = 0


def reoptimize(
    state: AllocationState,
    *,
    rng: np.random.Generator | int | None = None,
    optimum: float | None = None,
    rel_tol: float = 0.02,
    max_sweeps: int = 60,
    exchange_budget: int | None = None,
    strategy: str = "auto",
    screen_width: int = 16,
    min_improvement: float = 1e-9,
    stall_tol: float = 1e-10,
) -> ReoptimizeResult:
    """Incrementally re-optimize ``state`` in place with MinE sweeps.

    Sweeps run until the cost is within ``rel_tol`` of ``optimum`` (when
    given), the per-sweep improvement stalls, ``max_sweeps`` is reached,
    or the cumulative exchange count reaches ``exchange_budget``.  The
    budget is a *hard* cap — the remaining allowance is threaded into
    each sweep, which truncates mid-iteration when it runs out — so an
    epoch's re-solve can never consume more pairwise exchanges than
    budgeted, making per-epoch tracking work predictable.
    """

    def _within(cost: float) -> bool:
        if optimum is None:
            return False
        denom = optimum if optimum > 0 else 1.0
        return (cost - optimum) / denom <= rel_tol

    cost = state.total_cost()
    if _within(cost):
        return ReoptimizeResult(0, 0, 0.0, 0.0, cost, True)
    optimizer = MinEOptimizer(
        state,
        rng=rng,
        strategy=strategy,
        screen_width=screen_width,
        min_improvement=min_improvement,
    )
    sweeps = exchanges = 0
    moved = 0.0
    exchanges_to_bound = float("nan")
    converged = False
    for _ in range(max_sweeps):
        remaining = (
            exchange_budget - exchanges if exchange_budget is not None else None
        )
        stats = optimizer.sweep(max_exchanges=remaining)
        sweeps += 1
        exchanges += stats.exchanges
        moved += stats.total_moved
        cost = stats.cost_after
        if _within(cost):
            exchanges_to_bound = float(exchanges)
            converged = True
            break
        if exchange_budget is not None and exchanges >= exchange_budget:
            break
        if stats.improvement <= stall_tol * max(1.0, stats.cost_before):
            converged = optimum is None
            break
    return ReoptimizeResult(
        sweeps, exchanges, exchanges_to_bound, moved, cost, converged,
        kernel_calls=optimizer.kernel_stats.kernel_calls,
        kernel_candidates=optimizer.kernel_stats.kernel_candidates,
    )
