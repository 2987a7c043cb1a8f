"""Load-trace sweeps over (scenario × trace × stateful solver) cells.

A :class:`TrackingCell` is one picklable unit of work: a scenario cell,
a registered trace family and a registered stateful solver.  Evaluation
replays the trace epoch by epoch through the solver session, computing
each epoch's offline optimum with the warm-chained coordinate-descent
solve, and returns a flat metrics row — so whole grids run through the
existing :class:`repro.engine.SweepEngine` machinery: any backend,
``--shard k/N`` sharding, resumable :class:`repro.engine.JsonlStore`
stores (see ``examples/sharded_sweep_coordinator.py``).

>>> from repro.tracking import tracking_sweep
>>> rows = tracking_sweep(["paper-planetlab"], traces=["drift"],
...                       solvers=("mine-warm", "mine-cold"),
...                       sizes=[16], seeds=[0])          # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dynamic import retarget_allocation
from ..core.qp import solve_coordinate_descent
from ..engine.registry import get_stateful_solver
from ..engine.sweep import SweepEngine
from ..workloads.cache import cached_instance, instance_digest
from ..workloads.scenario import Scenario, scenario_grid
from .traces import get_trace, trace_epochs

__all__ = ["TrackingCell", "evaluate_tracking_cell", "tracking_sweep"]


@dataclass(frozen=True)
class TrackingCell:
    """One (scenario, m, seed) × (trace, stateful solver) tracking run."""

    scenario: Scenario
    m: int
    seed: int
    trace: str                    #: registered trace-family name
    solver: str = "mine-warm"     #: registered stateful-solver name
    rel_tol: float = 0.02
    max_sweeps: int = 60
    exchange_budget: "int | None" = None
    strategy: str = "auto"
    optimum_tol: float = 1e-9

    def __post_init__(self) -> None:
        get_trace(self.trace)            # validate eagerly
        get_stateful_solver(self.solver)

    def key(self) -> str:
        """Stable store identity (instance digest guards against a
        same-named scenario being re-registered with other parameters,
        mirroring :meth:`repro.livesim.LiveCell.key`)."""
        inst = cached_instance(self.scenario, self.m, self.seed)
        return (
            f"track|{self.scenario.name}|m={self.m}|seed={self.seed}"
            f"|inst={instance_digest(inst)}"
            f"|trace={self.trace}|solver={self.solver}|tol={self.rel_tol}"
            f"|sweeps={self.max_sweeps}|budget={self.exchange_budget}"
            f"|strategy={self.strategy}|opt_tol={self.optimum_tol}"
        )


def evaluate_tracking_cell(cell: TrackingCell) -> dict:
    """Replay one cell's trace through its stateful solver; flat row."""
    base = cached_instance(cell.scenario, cell.m, cell.seed)
    epochs = trace_epochs(cell.trace, cell.m, cell.seed)
    session = get_stateful_solver(cell.solver)(
        rel_tol=cell.rel_tol,
        max_sweeps=cell.max_sweeps,
        exchange_budget=cell.exchange_budget,
        strategy=cell.strategy,
    )
    opt_state = None
    errors, exchanges, to_bound, walls = [], [], [], []
    retracked = 0
    for k, (_t, loads) in enumerate(epochs):
        inst = base.with_loads(loads)
        warm = retarget_allocation(opt_state, inst) if opt_state is not None else None
        opt_state = solve_coordinate_descent(inst, state=warm, tol=cell.optimum_tol)
        opt_cost = opt_state.total_cost()
        if k == 0:
            res = session.start(inst, rng=cell.seed, optimum=opt_cost)
        else:
            res = session.step(inst, optimum=opt_cost)
        errors.append(res.relative_error(opt_cost))
        exchanges.append(res.metadata["exchanges"])
        to_bound.append(res.metadata["exchanges_to_bound"])
        walls.append(res.wall_time_s)
        retracked += bool(res.converged)
    to_bound_arr = np.asarray(to_bound, dtype=np.float64)
    steps = np.asarray(exchanges[1:], dtype=np.float64)  # epoch 0 is a cold
    return {                                             # start for everyone
        "scenario": cell.scenario.name,
        "m": cell.m,
        "seed": cell.seed,
        "trace": cell.trace,
        "solver": cell.solver,
        "epochs": len(epochs),
        "retracked_epochs": retracked,
        "all_retracked": retracked == len(epochs),
        "mean_error": float(np.mean(errors)),
        "max_error": float(np.max(errors)),
        "total_exchanges": int(np.sum(exchanges)),
        "mean_exchanges_per_epoch": float(np.mean(exchanges)),
        #: the tracking figure of merit: exchanges per *re-track* (the
        #: epochs that follow a demand shift; the initial solve is a
        #: cold start for every solver and is reported separately above)
        "mean_step_exchanges": float(steps.mean()) if steps.size else float("nan"),
        "mean_exchanges_to_bound": (
            float(np.nanmean(to_bound_arr))
            if np.isfinite(to_bound_arr).any()
            else float("nan")
        ),
        "solve_wall_s": float(np.sum(walls)),
    }


def tracking_sweep(
    scenarios,
    *,
    traces=("drift",),
    solvers=("mine-warm", "mine-cold"),
    sizes=None,
    seeds=(0,),
    rel_tol: float = 0.02,
    max_sweeps: int = 60,
    exchange_budget: "int | None" = None,
    backend: str = "serial",
    max_workers: "int | None" = None,
    store=None,
    shard=None,
) -> list[dict]:
    """Sweep tracking performance across a scenario × trace × solver grid.

    The (scenario, size, seed) grid is
    :func:`repro.workloads.scenario_grid`'s: names and :class:`Scenario`
    objects mix, ``sizes=None`` uses each scenario's default ``m`` and an
    empty axis (``traces`` and ``solvers`` included) raises
    ``ValueError``.  Returns one metrics row per cell in grid order;
    execution, sharding and stores go through
    :class:`repro.engine.SweepEngine` exactly as every other sweep in
    the repo (out-of-shard pending cells come back ``None``).
    """
    traces, solvers = tuple(traces), tuple(solvers)
    for arg, axis in (("traces", traces), ("solvers", solvers)):
        if not axis:
            raise ValueError(f"{arg} is empty: a sweep needs at least one {arg[:-1]}")
    cells = [
        TrackingCell(
            scenario=sc,
            m=m,
            seed=seed,
            trace=trace,
            solver=solver,
            rel_tol=rel_tol,
            max_sweeps=max_sweeps,
            exchange_budget=exchange_budget,
        )
        for sc, m, seed in scenario_grid(scenarios, sizes, seeds)
        for trace in traces
        for solver in solvers
    ]
    engine = SweepEngine(
        evaluate_tracking_cell,
        cells,
        backend=backend,
        max_workers=max_workers,
        store=store,
        key=lambda cell: cell.key(),
        shard=shard,
    )
    return engine.run()
