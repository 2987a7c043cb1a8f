"""Config-driven batch runner: one call sweeps a whole scenario grid.

:class:`ScenarioRunner` takes scenarios (names or :class:`Scenario`
objects), a list of sizes and a list of seeds, materializes every cell of
the cartesian grid and pushes each instance through the registered solver
stack (:mod:`repro.engine`):

* ``optimal`` — the cooperative optimum (always computed; it anchors
  every other metric);
* ``mine-*`` — the distributed algorithm, reporting its final relative
  error against the optimum;
* ``best-response`` — selfish equilibrium cost ratio (reuses the
  already-computed optimum instead of re-solving);
* the ``stream`` evaluator — the discrete-event steady-state simulation
  under the optimal routing fractions, with the arrival rate auto-scaled
  so every cell simulates a comparable number of events.

Results land in a :class:`ScenarioReport` — a light tabular container with
one :class:`ScenarioResult` row per ``(scenario, m, seed)`` cell, CSV
round-tripping (:meth:`ScenarioReport.to_csv` /
:meth:`ScenarioReport.from_csv`) and per-scenario aggregation.

Each cell solves the cooperative optimum once and shares that state with
every downstream metric (MinE's stop criterion, the PoA denominator, the
stream simulator's routing fractions) — the expensive array work is done
once per cell, not once per metric.

Execution is delegated to :class:`repro.engine.SweepEngine`: pass
``backend="process"`` to :meth:`ScenarioRunner.run` to fan cells out over
all cores (cells are embarrassingly parallel and each carries its own
deterministic seeds, so parallel results are bitwise-identical to
serial), and ``store=`` a JSONL path to make a long sweep crash-safe and
resumable.
"""

from __future__ import annotations

import csv
import io
import os
import time
import zlib
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from ..core.state import AllocationState
from ..engine import JsonlStore, SweepEngine, get_evaluator, get_solver
from .cache import cached_instance, cached_optimum, instance_digest
from .scenario import Scenario, ScenarioLike, scenario_grid

__all__ = [
    "ScenarioResult",
    "ScenarioReport",
    "ScenarioRunner",
    "SweepCell",
    "evaluate_cell",
]

#: Metrics the runner knows how to compute.  ``"optimal"`` is implied —
#: it is the reference point of the other three.
KNOWN_METRICS = ("optimal", "mine", "poa", "stream")

#: Row fields that carry wall-clock measurements — machine-dependent by
#: nature, hence excluded from determinism comparisons.
TIMING_FIELDS = ("optimal_s", "mine_s", "poa_s", "stream_s", "elapsed_s")


@dataclass(frozen=True)
class ScenarioResult:
    """One row of a sweep: every metric for one ``(scenario, m, seed)``."""

    scenario: str
    m: int
    seed: int
    total_load: float
    initial_cost: float          #: ΣCi with everyone running locally
    optimal_cost: float          #: ΣCi at the cooperative optimum
    mine_final_error: float      #: (ΣCi_MinE − ΣCi*) / ΣCi* at stop
    mine_iterations: int         #: MinE sweeps executed
    mine_converged: bool
    poa_ratio: float             #: ΣCi(NE) / ΣCi(OPT)
    stream_mean_latency: float   #: measured mean request latency (ms)
    stream_completed: int        #: requests finished before the horizon
    optimal_s: float             #: wall time of the optimum solve
    mine_s: float                #: wall time of the MinE run
    poa_s: float                 #: wall time of the best-response run
    stream_s: float              #: wall time of the stream simulation
    elapsed_s: float             #: wall time of this cell

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, record: dict) -> "ScenarioResult":
        """Rebuild a row from string/JSON values (CSV and JSONL loads),
        coercing each field through its declared type."""
        kw = {}
        for f in fields(cls):
            raw = record[f.name]
            if f.type in ("bool", bool):
                value = raw if isinstance(raw, bool) else raw == "True"
            elif f.type in ("int", int):
                value = int(raw)
            elif f.type in ("float", float):
                value = float(raw)
            else:
                value = str(raw)
            kw[f.name] = value
        return cls(**kw)

    def key(self) -> str:
        """Stable identity of the cell this row belongs to."""
        return f"{self.scenario}|m={self.m}|seed={self.seed}"


class ScenarioReport:
    """Tabular sweep results: a sequence of :class:`ScenarioResult` rows."""

    columns: tuple[str, ...] = tuple(f.name for f in fields(ScenarioResult))

    def __init__(self, rows: Sequence[ScenarioResult]):
        self.rows = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, idx):
        return self.rows[idx]

    def as_dicts(self) -> list[dict]:
        return [r.as_dict() for r in self.rows]

    def column(self, name: str) -> np.ndarray:
        """One column across all rows as an array."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return np.asarray([getattr(r, name) for r in self.rows])

    def filter(self, **eq) -> "ScenarioReport":
        """Rows whose fields equal all given values, e.g.
        ``report.filter(scenario="cdn-flashcrowd", m=50)``."""
        rows = [
            r for r in self.rows
            if all(getattr(r, k) == v for k, v in eq.items())
        ]
        return ScenarioReport(rows)

    def summary(self) -> list[dict]:
        """Per-(scenario, m) means over seeds — the shape of the paper's
        tables (each cell averaged over repetitions)."""
        groups: dict[tuple[str, int], list[ScenarioResult]] = {}
        for r in self.rows:
            groups.setdefault((r.scenario, r.m), []).append(r)
        out = []
        for (name, m), rs in sorted(groups.items()):
            out.append({
                "scenario": name,
                "m": m,
                "runs": len(rs),
                "optimal_cost": float(np.mean([r.optimal_cost for r in rs])),
                "mine_final_error": float(np.mean([r.mine_final_error for r in rs])),
                "poa_ratio": float(np.mean([r.poa_ratio for r in rs])),
                "stream_mean_latency": float(
                    np.mean([r.stream_mean_latency for r in rs])
                ),
            })
        return out

    def to_csv(self, path: Union[str, os.PathLike, None] = None) -> str:
        """Render as CSV; also write it to ``path`` when given."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.columns, lineterminator="\n")
        writer.writeheader()
        for r in self.rows:
            writer.writerow(r.as_dict())
        text = buf.getvalue()
        if path is not None:
            with open(os.fspath(path), "w", newline="") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, source: Union[str, os.PathLike]) -> "ScenarioReport":
        """Inverse of :meth:`to_csv`: load a report from a CSV file path
        or a CSV text blob, so partial sweeps can be resumed and merged.

        ``report == ScenarioReport.from_csv(report.to_csv())`` row for
        row."""
        text = os.fspath(source) if isinstance(source, os.PathLike) else source
        if "\n" not in text:  # no newline → cannot be CSV content, treat as path
            with open(text, "r", newline="") as fh:
                text = fh.read()
        reader = csv.DictReader(io.StringIO(text))
        missing = set(cls.columns) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"CSV is missing columns {sorted(missing)}")
        return cls([ScenarioResult.from_dict(rec) for rec in reader])

    def merged(self, *others: "ScenarioReport") -> "ScenarioReport":
        """Union of several (partial) reports; on duplicate cells the
        rightmost report wins.  Row order follows first appearance."""
        by_key: dict[str, ScenarioResult] = {}
        for rep in (self, *others):
            for r in rep.rows:
                by_key[r.key()] = r
        return ScenarioReport(list(by_key.values()))

    def __eq__(self, other) -> bool:
        """Metric equality: every row identical field-for-field except the
        wall-clock timings (machine noise)."""
        if not isinstance(other, ScenarioReport):
            return NotImplemented
        if len(self) != len(other):
            return False
        skip = set(TIMING_FIELDS)
        for a, b in zip(self.rows, other.rows):
            for name in self.columns:
                if name in skip:
                    continue
                va, vb = getattr(a, name), getattr(b, name)
                if va != vb and not (va != va and vb != vb):  # NaN == NaN here
                    return False
        return True

    def __repr__(self) -> str:
        names = sorted({r.scenario for r in self.rows})
        return f"ScenarioReport({len(self.rows)} rows, scenarios={names})"


@dataclass(frozen=True)
class SweepCell:
    """One picklable unit of work: a scenario cell plus the evaluation
    config.  Everything stochastic derives from ``(scenario, m, seed)``,
    so where the cell runs cannot change what it computes."""

    scenario: Scenario
    m: int
    seed: int
    metrics: tuple[str, ...]
    mine_strategy: str = "auto"
    mine_max_iterations: int = 60
    mine_rel_tol: float = 0.01
    stream_horizon: float = 4.0
    stream_events_target: float = 2000.0
    solver_tol: float = 1e-9

    def key(self) -> str:
        """Store identity: the cell coordinates plus digests of the
        evaluation config and the materialized instance, so a store
        shared between sweeps with different metrics/tolerances — or
        with a since-redefined same-named scenario — never serves stale
        rows."""
        cfg = (
            self.metrics,
            self.mine_strategy,
            self.mine_max_iterations,
            self.mine_rel_tol,
            self.stream_horizon,
            self.stream_events_target,
            self.solver_tol,
        )
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        digest = zlib.crc32(repr(cfg).encode()) & 0xFFFFFFFF
        inst = cached_instance(self.scenario, self.m, self.seed)
        key = (
            f"{self.scenario.name}|m={self.m}|seed={self.seed}"
            f"|inst={instance_digest(inst)}|cfg={digest:08x}"
        )
        object.__setattr__(self, "_key", key)  # memo on the frozen cell
        return key


def evaluate_cell(cell: SweepCell) -> ScenarioResult:
    """Evaluate one grid cell through the registered solver stack.

    Module-level (hence picklable) so the process backends can ship it to
    workers.  The cooperative optimum is solved once and shared by the
    MinE stop criterion, the PoA denominator and the stream simulator's
    routing fractions.
    """
    t0 = time.perf_counter()
    sc, m, seed = cell.scenario, cell.m, cell.seed
    inst = cached_instance(sc, m, seed)
    # Independent sub-streams for the stochastic stages, derived from
    # the cell coordinates so each stage is individually reproducible.
    mine_rng, poa_rng, sim_rng = sc.rng(m, seed).spawn(3)

    initial_cost = AllocationState.initial(inst).total_cost()
    # The O(m²–m³) optimum solve is memoized across cells and sweeps
    # (multi-solver cells and re-sweeps share one solve per cell key).
    opt_state, opt_cost, opt_wall, _hit = cached_optimum(
        sc, m, seed, tol=cell.solver_tol
    )

    mine_err, mine_iters, mine_conv, mine_s = float("nan"), 0, False, 0.0
    if "mine" in cell.metrics:
        mine = get_solver(f"mine-{cell.mine_strategy}").solve(
            inst,
            rng=mine_rng,
            optimum=opt_cost,
            max_iterations=cell.mine_max_iterations,
            rel_tol=cell.mine_rel_tol,
        )
        mine_err = mine.relative_error(opt_cost)
        mine_iters = mine.iterations
        mine_conv = mine.converged
        mine_s = mine.wall_time_s

    poa, poa_s = float("nan"), 0.0
    if "poa" in cell.metrics:
        ne = get_solver("best-response").solve(inst, rng=poa_rng, optimum=opt_cost)
        poa = ne.metadata.get("poa_ratio", float("nan"))
        poa_s = ne.wall_time_s

    stream_mean, stream_done, stream_s = float("nan"), 0, 0.0
    if "stream" in cell.metrics:
        t_stream = time.perf_counter()
        measured = get_evaluator("stream")(
            inst,
            opt_state,
            rng=sim_rng,
            horizon=cell.stream_horizon,
            events_target=cell.stream_events_target,
        )
        stream_s = time.perf_counter() - t_stream
        stream_mean = measured["mean_latency"]
        stream_done = measured["completed"]

    return ScenarioResult(
        scenario=sc.name,
        m=m,
        seed=seed,
        total_load=inst.total_load,
        initial_cost=initial_cost,
        optimal_cost=opt_cost,
        mine_final_error=mine_err,
        mine_iterations=mine_iters,
        mine_converged=mine_conv,
        poa_ratio=poa,
        stream_mean_latency=stream_mean,
        stream_completed=stream_done,
        optimal_s=opt_wall,
        mine_s=mine_s,
        poa_s=poa_s,
        stream_s=stream_s,
        elapsed_s=time.perf_counter() - t0,
    )


class ScenarioRunner:
    """Execute a scenario grid through the full solver + simulator stack.

    Parameters
    ----------
    scenarios:
        Scenario names (looked up in the registry) and/or
        :class:`Scenario` objects, in any mix.
    sizes:
        Organization counts to sweep; ``None`` uses each scenario's own
        default ``m``.
    seeds:
        Replication seeds; each contributes one run per (scenario, size).
    metrics:
        Subset of ``("mine", "poa", "stream")`` to compute on top of the
        always-on cooperative optimum.  Dropped metrics report ``nan``/0.
    mine_strategy, mine_max_iterations, mine_rel_tol:
        Partner-selection strategy and stop criteria for the distributed
        MinE run (solver ``mine-<strategy>`` in the registry).
    stream_horizon:
        Simulated time units for :func:`repro.simulate_stream`.
    stream_events_target:
        The Poisson arrival rate is scaled so a cell generates roughly
        this many events regardless of its total load, keeping the
        pure-python event loop's cost flat across the sweep.
    solver_tol:
        Tolerance of the cooperative-optimum solve.
    """

    def __init__(
        self,
        scenarios: Iterable[ScenarioLike] | ScenarioLike,
        *,
        sizes: Sequence[int] | None = None,
        seeds: Sequence[int] = (0,),
        metrics: Sequence[str] = ("mine", "poa", "stream"),
        mine_strategy: str = "auto",
        mine_max_iterations: int = 60,
        mine_rel_tol: float = 0.01,
        stream_horizon: float = 4.0,
        stream_events_target: float = 2000.0,
        solver_tol: float = 1e-9,
    ):
        # Enumerated at construction, so an empty axis fails here.
        self._grid = scenario_grid(scenarios, sizes, seeds)
        unknown = set(metrics) - set(KNOWN_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}; "
                             f"choose from {KNOWN_METRICS}")
        self.metrics = frozenset(metrics) | {"optimal"}
        self.mine_strategy = str(mine_strategy)
        self.mine_max_iterations = int(mine_max_iterations)
        self.mine_rel_tol = float(mine_rel_tol)
        self.stream_horizon = float(stream_horizon)
        self.stream_events_target = float(stream_events_target)
        self.solver_tol = float(solver_tol)

    # ------------------------------------------------------------------
    def grid(self) -> list[tuple[Scenario, int, int]]:
        """The cartesian (scenario, m, seed) cells, in declared order
        (:func:`~repro.workloads.scenario_grid`) — report rows and CSV
        output follow this order exactly."""
        return list(self._grid)

    def cells(self) -> list[SweepCell]:
        """The grid as self-contained, picklable :class:`SweepCell` work
        units (what the engine actually executes)."""
        ordered = tuple(sorted(self.metrics))
        return [
            SweepCell(
                scenario=sc,
                m=m,
                seed=seed,
                metrics=ordered,
                mine_strategy=self.mine_strategy,
                mine_max_iterations=self.mine_max_iterations,
                mine_rel_tol=self.mine_rel_tol,
                stream_horizon=self.stream_horizon,
                stream_events_target=self.stream_events_target,
                solver_tol=self.solver_tol,
            )
            for sc, m, seed in self.grid()
        ]

    def engine(
        self,
        *,
        backend: str = "serial",
        max_workers: int | None = None,
        chunk_size: int | None = None,
        store: "JsonlStore | str | None" = None,
    ) -> SweepEngine:
        """The configured :class:`~repro.engine.SweepEngine` for this grid
        (exposed for callers that want :meth:`SweepEngine.pending` etc.)."""
        return SweepEngine(
            evaluate_cell,
            self.cells(),
            backend=backend,
            max_workers=max_workers,
            chunk_size=chunk_size,
            store=store,
            key=lambda cell: cell.key(),
            encode=lambda row: row.as_dict(),
            decode=ScenarioResult.from_dict,
        )

    def run(
        self,
        *,
        backend: str = "serial",
        max_workers: int | None = None,
        chunk_size: int | None = None,
        store: "JsonlStore | str | None" = None,
        progress: Callable[[ScenarioResult], None] | None = None,
    ) -> ScenarioReport:
        """Execute every grid cell and return the collected report.

        ``backend`` selects the execution backend (``"serial"``,
        ``"threads"``, ``"process"``, ``"chunked"`` — see
        :mod:`repro.engine.backends`);
        parallel runs are bitwise-identical to serial ones.  ``store``
        (a JSONL path or :class:`~repro.engine.JsonlStore`) persists each
        row as it completes and skips already-stored cells on re-runs.
        ``progress`` (if given) is called with each finished row in grid
        order — handy for printing long sweeps as they go.
        """
        engine = self.engine(
            backend=backend,
            max_workers=max_workers,
            chunk_size=chunk_size,
            store=store,
        )
        return ScenarioReport(engine.run(progress=progress))
