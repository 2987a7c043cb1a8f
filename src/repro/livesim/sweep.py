"""Sync-vs-async convergence sweeps over scenario × control-plane cells.

A :class:`LiveCell` is one picklable unit of work: a scenario cell plus
a control-plane ``mode`` — ``"sync"`` runs the classic lock-stepped
:class:`repro.core.distributed.MinEOptimizer`, ``"async"`` runs the
event-driven :class:`repro.livesim.LiveSimulation` under a named preset
(``"ideal"``, ``"lossy"``, ``"churn"``).  :func:`evaluate_live_cell` is
module-level, so :class:`repro.engine.SweepEngine` can fan cells out
over any backend; the offline optimum each cell compares against comes
from the in-process memo cache (:mod:`repro.workloads.cache`), so the
sync and async cells of one scenario share a single O(m²–m³) solve.

>>> from repro.livesim import live_sweep
>>> rows = live_sweep(["paper-homogeneous"], sizes=[16], seeds=[0],
...                   modes=("sync", "async"))            # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.distributed import MinEOptimizer
from ..core.state import AllocationState
from ..engine.sweep import SweepEngine
from ..workloads.cache import cached_instance, cached_optimum, instance_digest
from ..workloads.scenario import Scenario, scenario_grid
from .driver import LiveSimulation, get_live_preset

__all__ = ["LiveCell", "evaluate_live_cell", "live_sweep"]

MODES = ("sync", "async")


@dataclass(frozen=True)
class LiveCell:
    """One (scenario, m, seed) × (mode, preset) convergence measurement."""

    scenario: Scenario
    m: int
    seed: int
    mode: str = "async"
    preset: str = "ideal"
    rounds: int = 60
    rel_tol: float = 0.02
    solver_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        get_live_preset(self.preset)  # validate eagerly

    def key(self) -> str:
        """Stable store identity of this cell.

        Includes a digest of the materialized instance (guards against a
        same-named scenario being re-registered with different
        parameters, exactly as :meth:`repro.workloads.SweepCell.key`
        does) and every config knob that changes the metrics — so a
        shared JSONL store never serves stale rows.
        """
        inst = cached_instance(self.scenario, self.m, self.seed)
        return (
            f"live|{self.scenario.name}|m={self.m}|seed={self.seed}"
            f"|inst={instance_digest(inst)}"
            f"|mode={self.mode}|preset={self.preset}|rounds={self.rounds}"
            f"|tol={self.rel_tol}|solver_tol={self.solver_tol}"
        )


def evaluate_live_cell(cell: LiveCell) -> dict:
    """Run one cell; returns a flat, JSON-able metrics row.

    Both modes report convergence on the same clock — *agent rounds* —
    so sync and async trajectories are directly comparable: a sync MinE
    iteration corresponds to one agent interval of wall-clock sim time.

    Every row carries a ``failure`` field: empty on success, the
    exception (``"TypeName: message"``) when the cell's evaluation
    raised.  A failed (or sync — no event engine) cell reports
    ``events_per_sec=0.0`` rather than NaN, so JSONL stores and
    ``ScenarioReport.from_csv`` aggregate real numbers and the reason a
    measurement is missing is recorded instead of silently propagated.
    """
    sc, m, seed = cell.scenario, cell.m, cell.seed
    row = {
        "scenario": sc.name,
        "m": m,
        "seed": seed,
        "mode": cell.mode,
        "preset": cell.preset,
        "failure": "",
    }
    try:
        inst = cached_instance(sc, m, seed)
        _opt_state, opt_cost, _wall, _hit = cached_optimum(
            sc, m, seed, tol=cell.solver_tol
        )
        row["optimal_cost"] = opt_cost
        if cell.mode == "sync":
            state = AllocationState.initial(inst)
            optimizer = MinEOptimizer(state, rng=sc.rng(m, seed), strategy="exact")
            trace = optimizer.run(
                max_iterations=cell.rounds, optimum=opt_cost, rel_tol=cell.rel_tol
            )
            errs = trace.relative_errors(opt_cost)
            within = np.flatnonzero(errs <= cell.rel_tol)
            row.update(
                final_error=float(errs[-1]),
                converged=bool(trace.converged),
                rounds_to_bound=float(within[0]) if within.size else float("nan"),
                exchanges=int(sum(s.exchanges for s in trace.sweeps)),
                failures=0,
                events_per_sec=0.0,  # lock-stepped: no event engine ran
                mean_view_age_rounds=0.0,
            )
        else:
            cfg = get_live_preset(cell.preset)
            sim = LiveSimulation(inst, config=cfg, seed=seed, optimum=opt_cost)
            report = sim.run(rounds=cell.rounds)
            interval = sim.config.agent_interval
            row.update(
                final_error=report.final_error,
                converged=bool(report.final_error <= cell.rel_tol),
                rounds_to_bound=report.time_to_within(cell.rel_tol) / interval,
                exchanges=report.agents.exchanges,
                failures=len(report.failures),
                events_per_sec=report.events_per_sec,
                mean_view_age_rounds=report.mean_view_age / interval,
            )
    except Exception as exc:
        row.update(
            optimal_cost=row.get("optimal_cost", 0.0),
            final_error=float("inf"),
            converged=False,
            rounds_to_bound=float("nan"),
            exchanges=0,
            failures=0,
            events_per_sec=0.0,
            mean_view_age_rounds=0.0,
            failure=f"{type(exc).__name__}: {exc}",
        )
    return row


def live_sweep(
    scenarios,
    *,
    sizes=None,
    seeds=(0,),
    modes=MODES,
    preset: str = "ideal",
    rounds: int = 60,
    rel_tol: float = 0.02,
    backend: str = "serial",
    max_workers: int | None = None,
    store=None,
) -> list[dict]:
    """Sweep sync-vs-async convergence across a scenario grid.

    The (scenario, size, seed) grid is
    :func:`repro.workloads.scenario_grid`'s: names and :class:`Scenario`
    objects mix, ``sizes=None`` uses each scenario's default ``m`` and an
    empty axis raises ``ValueError``.  Returns one metrics row per
    (scenario, size, seed, mode) cell, in grid order; execution
    goes through :class:`repro.engine.SweepEngine`, so any backend and
    any JSONL store work exactly as they do for
    :class:`repro.workloads.ScenarioRunner`.
    """
    cells = [
        LiveCell(
            scenario=sc,
            m=m,
            seed=seed,
            mode=mode,
            preset=preset,
            rounds=rounds,
            rel_tol=rel_tol,
        )
        for sc, m, seed in scenario_grid(scenarios, sizes, seeds)
        for mode in modes
    ]
    engine = SweepEngine(
        evaluate_live_cell,
        cells,
        backend=backend,
        max_workers=max_workers,
        store=store,
        key=lambda cell: cell.key(),
    )
    return engine.run()
