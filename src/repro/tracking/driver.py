"""`TrackingSimulation` — the live control plane chasing a moving optimum.

Couples :class:`repro.livesim.LiveSimulation` (async gossip + handshake
MinE agents + churn + optional live-routed traffic, all on one event
heap) to a demand *trace*: at every epoch boundary the demand vector
shifts (:meth:`LiveSimulation.apply_demand` — routing fractions are
retargeted, the gossip layer republishes, the screened agent plane drops
its back-off and re-runs), the per-epoch offline optimum is re-solved
(warm-started coordinate descent, chained epoch to epoch), and the
system is measured on how well it *tracks*:

* **instantaneous regret** ``(C(t) − C*_k)/C*_k`` against the active
  epoch's optimum,
* **time-to-retrack**: how many agent rounds after a shift the plane is
  back (and stays) within the relative bound,
* **cumulative excess cost** ``∫ (C(t) − C*(t)) dt`` — the integral a
  production operator actually pays for tracking lag.

Everything is deterministic per ``(instance, trace, config, seed)``:
the trace's epoch loads come from their own seeded stream, the live
plane from its own, so the determinism suite can replay runs and split
them at arbitrary epoch counts (``run(epochs=k)`` chunks compose into
exactly the single long run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.instance import Instance
from ..core.qp import solve_coordinate_descent
from ..core.state import AllocationState
from ..livesim.driver import LiveConfig, LiveReport, LiveSimulation
from .traces import LoadTrace, trace_epochs

__all__ = ["EpochMetrics", "TrackingReport", "TrackingSimulation"]


@dataclass
class EpochMetrics:
    """Tracking diagnostics for one demand epoch."""

    index: int
    t_start_rounds: float
    duration_rounds: float
    optimum_cost: float          #: offline optimum of this epoch's demand
    cost_at_shift: float         #: ΣCi right after the demand landed
    final_cost: float            #: ΣCi at the epoch's end
    retrack_rounds: float        #: rounds from shift until within bound (nan: never)
    exchanges: int               #: pairwise exchanges spent this epoch
    excess_cost: float           #: ∫(C − C*) dt over the epoch (sim-time units)
    mean_regret: float           #: time-averaged relative regret

    @property
    def start_error(self) -> float:
        if self.optimum_cost <= 0 or not np.isfinite(self.optimum_cost):
            return float("nan")
        return (self.cost_at_shift - self.optimum_cost) / self.optimum_cost

    @property
    def final_error(self) -> float:
        if self.optimum_cost <= 0 or not np.isfinite(self.optimum_cost):
            return float("nan")
        return (self.final_cost - self.optimum_cost) / self.optimum_cost


@dataclass
class TrackingReport:
    """Everything a tracking run measured (so far)."""

    rel_tol: float
    epochs: list[EpochMetrics]
    live: LiveReport
    #: Epoch boundaries in sim time and the per-epoch optima, aligned
    #: with ``epochs`` — the piecewise-constant C*(t).
    epoch_starts: np.ndarray = field(default_factory=lambda: np.empty(0))
    epoch_optima: np.ndarray = field(default_factory=lambda: np.empty(0))

    # ------------------------------------------------------------------
    @property
    def cumulative_excess_cost(self) -> float:
        """``∫ (C(t) − C*(t)) dt`` summed over all finished epochs."""
        return float(sum(e.excess_cost for e in self.epochs))

    @property
    def mean_final_error(self) -> float:
        errs = [e.final_error for e in self.epochs if np.isfinite(e.final_error)]
        return float(np.mean(errs)) if errs else float("nan")

    @property
    def max_final_error(self) -> float:
        errs = [e.final_error for e in self.epochs if np.isfinite(e.final_error)]
        return float(np.max(errs)) if errs else float("nan")

    @property
    def total_exchanges(self) -> int:
        return int(sum(e.exchanges for e in self.epochs))

    def all_retracked(self) -> bool:
        """Did every epoch re-enter (and hold) the bound before ending?"""
        return bool(self.epochs) and all(
            np.isfinite(e.retrack_rounds) for e in self.epochs
        )

    def regret_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, regret)`` of the whole run against the
        piecewise-constant per-epoch optimum (regret is nan before the
        first epoch optimum exists)."""
        times = self.live.times
        costs = self.live.costs
        regret = np.full_like(costs, np.nan)
        for k in range(len(self.epoch_starts)):
            t0 = self.epoch_starts[k]
            t1 = (
                self.epoch_starts[k + 1]
                if k + 1 < len(self.epoch_starts)
                else np.inf
            )
            opt = self.epoch_optima[k]
            if opt > 0 and np.isfinite(opt):
                sel = (times >= t0) & (times < t1)
                regret[sel] = (costs[sel] - opt) / opt
        return times, regret


class TrackingSimulation:
    """Drive a :class:`LiveSimulation` along a demand trace.

    Parameters
    ----------
    inst:
        The base instance; its load vector is replaced by the trace's
        epoch-0 loads (topology and speeds persist across all epochs).
    trace:
        A registered trace name, a :class:`repro.tracking.LoadTrace`, or
        a precomputed ``[(t_rounds, loads), ...]`` list.
    config:
        Control-plane parameters (:class:`repro.livesim.LiveConfig`);
        ``gossip_mode="delta"`` makes the per-epoch re-gossip O(changes).
    seed:
        Single integer: derives both the trace stream and every live
        stream deterministically.
    rel_tol:
        The relative bound used for re-track times (the paper's 2 %).
    tail_rounds:
        How long the last epoch runs (default: the previous epoch's
        duration, or 20 rounds for single-epoch traces).
    compute_optimum:
        Solve the per-epoch offline optimum (warm-started coordinate
        descent chained from the previous epoch's optimum).  Disable for
        pure throughput measurements; regret metrics become nan.
    """

    def __init__(
        self,
        inst: Instance,
        trace: "LoadTrace | str | list[tuple[float, np.ndarray]]",
        *,
        config: LiveConfig | None = None,
        seed: int = 0,
        rel_tol: float = 0.02,
        tail_rounds: float | None = None,
        compute_optimum: bool = True,
        optimum_tol: float = 1e-9,
        obs=None,
        profile: bool = False,
    ):
        if isinstance(trace, list):
            self.epochs_spec = [
                (float(t), np.asarray(l, dtype=np.float64)) for t, l in trace
            ]
        else:
            self.epochs_spec = trace_epochs(trace, inst.m, seed)
        self.rel_tol = float(rel_tol)
        self.compute_optimum = bool(compute_optimum)
        self.optimum_tol = float(optimum_tol)
        times = [t for t, _ in self.epochs_spec]
        if tail_rounds is None:
            tail_rounds = times[-1] - times[-2] if len(times) >= 2 else 20.0
        self.tail_rounds = float(tail_rounds)

        inst0 = inst.with_loads(self.epochs_spec[0][1])
        self.sim = LiveSimulation(
            inst0, config=config, seed=seed, obs=obs, profile=profile,
        )
        self.obs = self.sim.obs  # resolved context (may be process-global)
        self._interval = self.sim.config.agent_interval
        self._opt_state: AllocationState | None = None
        self._next = 0                 #: next epoch segment to process
        self._metrics: list[EpochMetrics] = []
        self._starts: list[float] = []
        self._optima: list[float] = []
        self._enter_epoch(0)

    # ------------------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        return len(self.epochs_spec)

    @property
    def epochs_done(self) -> int:
        return len(self._metrics)

    def _solve_epoch_optimum(self, inst: Instance) -> float:
        """The epoch's offline optimum, warm-started from the previous
        epoch's optimum retargeted to the new demand (coordinate descent
        converges to the global optimum from any feasible start, so the
        warm start only buys speed, never accuracy)."""
        from ..core.dynamic import retarget_allocation  # lazy: cycle-free

        warm = (
            retarget_allocation(self._opt_state, inst)
            if self._opt_state is not None
            else None
        )
        self._opt_state = solve_coordinate_descent(
            inst, state=warm, tol=self.optimum_tol
        )
        return self._opt_state.total_cost()

    def _enter_epoch(self, k: int) -> None:
        """Apply epoch ``k``'s demand (k = 0 is baked into the sim) and
        point the live error metrics at its optimum."""
        t, loads = self.epochs_spec[k]
        if k > 0:
            self.sim.apply_demand(loads)
        if self.compute_optimum:
            self.sim.optimum_cost = self._solve_epoch_optimum(self.sim.inst)
            self.sim.optimum_loads = self._opt_state.loads.copy()
        self._starts.append(t * self._interval)
        self._optima.append(self.sim.optimum_cost)
        self._cost_mark = len(self.sim.cost_samples) - 1
        self._exch_mark = self.sim.agents.stats.exchanges
        if self.obs is not None:
            self.obs.metrics.counter("tracking.epochs").inc()
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.instant(
                    "tracking.epoch_enter",
                    t * self._interval,
                    index=k,
                    optimum=float(self.sim.optimum_cost),
                )

    # ------------------------------------------------------------------
    def run(self, epochs: int | None = None) -> TrackingReport:
        """Advance ``epochs`` epoch segments (default: all remaining)
        and return the report so far.  Chunked calls compose exactly
        into one long run (asserted by the determinism suite)."""
        remaining = self.n_epochs - self._next
        todo = remaining if epochs is None else min(int(epochs), remaining)
        for _ in range(todo):
            k = self._next
            t_start = self.epochs_spec[k][0]
            t_end = (
                self.epochs_spec[k + 1][0]
                if k + 1 < self.n_epochs
                else t_start + self.tail_rounds
            )
            self.sim.run(until=t_end * self._interval)
            self._metrics.append(self._finish_epoch(k, t_start, t_end))
            self._next += 1
            if self._next < self.n_epochs:
                self._enter_epoch(self._next)
        return self.report()

    def _finish_epoch(self, k: int, t_start: float, t_end: float) -> EpochMetrics:
        samples = self.sim.cost_samples[self._cost_mark:]
        times = np.asarray([t for t, _ in samples])
        costs = np.asarray([c for _, c in samples])
        opt = self._optima[k]
        t0 = t_start * self._interval
        t1 = t_end * self._interval
        # ΣCi is a step function: ∫(C − C*)dt from the sampled anchors
        # (the run boundary sample at t1 closes the last step exactly).
        widths = np.diff(times)
        excess = float(np.sum((costs[:-1] - opt) * widths)) if opt > 0 else float("nan")
        duration = t1 - t0
        mean_regret = (
            excess / (opt * duration) if opt > 0 and duration > 0 else float("nan")
        )
        retrack = float("nan")
        if opt > 0 and np.isfinite(opt) and costs.size:
            errs = (costs - opt) / opt
            if errs[-1] <= self.rel_tol:
                above = np.flatnonzero(errs > self.rel_tol)
                idx = 0 if above.size == 0 else int(above[-1]) + 1
                retrack = (times[idx] - t0) / self._interval
        if self.obs is not None:
            if np.isfinite(retrack):
                self.obs.metrics.histogram("tracking.retrack_rounds").observe(
                    retrack
                )
            tracer = self.obs.tracer
            if tracer is not None:
                # One whole-epoch span on a dedicated lane: the timeline
                # backbone the per-protocol lanes sit under.
                tracer.span(
                    "tracking.epoch",
                    t0,
                    t1 - t0,
                    track=-1,
                    index=k,
                    retrack_rounds=retrack if np.isfinite(retrack) else None,
                )
        return EpochMetrics(
            index=k,
            t_start_rounds=t_start,
            duration_rounds=t_end - t_start,
            optimum_cost=opt,
            cost_at_shift=float(costs[0]) if costs.size else float("nan"),
            final_cost=float(costs[-1]) if costs.size else float("nan"),
            retrack_rounds=retrack,
            exchanges=self.sim.agents.stats.exchanges - self._exch_mark,
            excess_cost=excess,
            mean_regret=mean_regret,
        )

    def report(self) -> TrackingReport:
        """The tracking metrics accumulated so far."""
        return TrackingReport(
            rel_tol=self.rel_tol,
            epochs=list(self._metrics),
            live=self.sim.report(),
            epoch_starts=np.asarray(self._starts[: len(self._metrics) + 1]),
            epoch_optima=np.asarray(self._optima[: len(self._metrics) + 1]),
        )
