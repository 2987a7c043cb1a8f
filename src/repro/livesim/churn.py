"""Churn: servers crash, shed their remote load, and rejoin later.

Each server (independently, on its own RNG stream) fails after an
exponential holding time and stays down for an exponential downtime.
A failure is a *restart that loses the server's queue*: every remote
organization fails its requests back over to its own local server
(``r_kj → r_kk``), which perturbs the allocation and spikes ``ΣCi`` —
the re-convergence the livesim acceptance tests measure.  While down, a
server neither gossips nor handshakes and all messages delivered to it
are lost; on rejoin it republishes its (now empty) authoritative entry
and the agents rebalance load back onto it.

Besides the memoryless :class:`ChurnModel`, a :class:`FailureTrace`
replays an explicit ``(t_rounds, server, downtime_rounds)`` event list
— loaded from CSV/NPZ like :class:`repro.tracking.MeasuredTrace`, or
generated from per-server MTBF parameters with
:meth:`FailureTrace.from_mtbf` (Weibull inter-failure times, the
standard fit to measured cluster failure data, which burst far more
than the exponential model).  Trace events route through the same
``on_fail``/``on_rejoin`` driver callbacks, so queue drops and owner
re-submission couple exactly as under random churn.

Message loss (probability ``p``) is orthogonal and lives in
:class:`repro.livesim.net.ControlNetwork`; this module only models the
leave/rejoin process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.state import AllocationState
from ..sim.events import Environment

__all__ = [
    "ChurnModel",
    "FailureTrace",
    "start_churn",
    "start_trace_churn",
    "fail_server",
    "rejoin_server",
]

#: Entropy constant of the MTBF trace generator (entropy-separated from
#: every other stream in the engine, keyed by the caller's seed).
_FAILTRACE_ENTROPY = 0x9D17B0F3

#: Mean downtime of a :class:`ChurnModel` restart, in agent rounds.
CHURN_DOWNTIME_ROUNDS = 3.0


@dataclass(frozen=True)
class ChurnModel:
    """Failure process parameters.

    ``rate`` is the expected number of restarts per server per
    *agent-interval round* (the natural clock of the control plane, so a
    preset means the same thing on a 0.5 ms fat-tree and a 90 ms WAN);
    the mean downtime is :data:`CHURN_DOWNTIME_ROUNDS` in the same unit.
    """

    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("churn rate must be non-negative")


@dataclass(frozen=True, eq=False)
class FailureTrace:
    """An explicit failure schedule: ``(n, 3)`` rows of
    ``(t_rounds, server, downtime_rounds)``.

    ``t`` and downtimes are measured in *agent rounds* (the control
    plane's natural clock, like :class:`ChurnModel`); servers are
    integer indices.  Events need not be sorted — replay sorts them —
    and events for servers ``>= m`` are ignored at start time, so one
    measured trace can drive fleets of several sizes.
    """

    events: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        ev = np.asarray(self.events, dtype=np.float64)
        if ev.ndim != 2 or ev.shape[1] != 3:
            raise ValueError(
                "failure trace must be a (n, 3) matrix of "
                "(t_rounds, server, downtime_rounds) rows"
            )
        if not np.all(np.isfinite(ev)):
            raise ValueError("failure trace entries must be finite")
        if np.any(ev[:, 0] < 0):
            raise ValueError("failure times must be non-negative")
        if np.any(ev[:, 1] < 0) or np.any(ev[:, 1] != np.round(ev[:, 1])):
            raise ValueError("server column must hold non-negative integers")
        if np.any(ev[:, 2] <= 0):
            raise ValueError("downtimes must be positive")
        ev = ev[np.lexsort((ev[:, 1], ev[:, 0]))]
        ev.flags.writeable = False
        object.__setattr__(self, "events", ev)

    @property
    def n_events(self) -> int:
        return self.events.shape[0]

    @classmethod
    def from_csv(cls, path: "str | os.PathLike") -> "FailureTrace":
        """Load a trace from CSV (one ``t,server,downtime`` row each)."""
        ev = np.loadtxt(os.fspath(path), delimiter=",", ndmin=2)
        return cls(ev)

    @classmethod
    def from_npz(
        cls, path: "str | os.PathLike", *, key: str = "events"
    ) -> "FailureTrace":
        """Load a trace from an ``.npz`` archive (``key`` names the matrix)."""
        with np.load(os.fspath(path)) as npz:
            return cls(npz[key])

    @classmethod
    def from_mtbf(
        cls,
        m: int,
        *,
        mtbf_rounds: float,
        horizon_rounds: float,
        downtime_rounds: float = 3.0,
        shape: float = 0.7,
        seed: int = 0,
    ) -> "FailureTrace":
        """Generate a measured-style trace from MTBF parameters.

        Per-server inter-failure times are Weibull with the given
        ``shape`` (< 1 bursts failures, matching measured cluster MTBF
        data; 1.0 recovers the exponential churn model) scaled so the
        mean is ``mtbf_rounds``; downtimes are exponential with mean
        ``downtime_rounds``.  Deterministic per ``(m, seed)`` via an
        entropy-separated stream."""
        if mtbf_rounds <= 0 or horizon_rounds <= 0:
            raise ValueError("mtbf_rounds and horizon_rounds must be positive")
        if downtime_rounds <= 0:
            raise ValueError("downtime_rounds must be positive")
        if shape <= 0:
            raise ValueError("Weibull shape must be positive")
        try:
            from math import gamma as _gamma

            scale = mtbf_rounds / _gamma(1.0 + 1.0 / shape)
        except OverflowError:  # pragma: no cover - absurd shapes
            scale = mtbf_rounds
        root = np.random.SeedSequence(
            entropy=_FAILTRACE_ENTROPY, spawn_key=(int(m), int(seed))
        )
        rows = []
        for j, ss in enumerate(root.spawn(int(m))):
            rng = np.random.default_rng(ss)
            t = float(scale * rng.weibull(shape))
            while t < horizon_rounds:
                down = float(rng.exponential(downtime_rounds))
                rows.append((t, float(j), down))
                t += down + float(scale * rng.weibull(shape))
        if not rows:
            # Keep the (n, 3) shape even for a quiet horizon.
            return cls(np.empty((0, 3), dtype=np.float64))
        return cls(np.asarray(rows, dtype=np.float64))


def fail_server(state: AllocationState, j: int) -> float:
    """Apply the allocation effect of server ``j`` crashing: every other
    organization's requests on ``j`` fail over to their local servers.
    Returns the volume of requests displaced."""
    R = state.R
    col = R[:, j].copy()
    col[j] = 0.0  # org j's own requests stay pinned to its (down) server
    movers = np.flatnonzero(col)
    if movers.size:
        R[movers, movers] += col[movers]
        R[movers, j] = 0.0
        state.refresh_loads()
    return float(col.sum())


def rejoin_server(state: AllocationState, j: int) -> None:
    """Allocation effect of ``j`` rejoining: none — it comes back holding
    only whatever its own organization kept pinned locally."""


def start_churn(
    env: Environment,
    model: ChurnModel,
    seeds: list[np.random.SeedSequence],
    *,
    agent_interval: float,
    on_fail: Callable[[int], None],
    on_rejoin: Callable[[int], None],
    metrics=None,
) -> None:
    """Spawn one leave/rejoin process per server.

    No process is spawned when ``model.rate == 0`` — churn at rate zero
    is *exactly* churn disabled, which the determinism tests assert.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) optionally counts
    restarts under ``churn.*`` and observes the drawn downtimes; churn is
    event-scale rare, so the record cost is irrelevant either way.
    """
    if model.rate == 0.0:
        return
    mean_up = agent_interval / model.rate
    mean_down = agent_interval * CHURN_DOWNTIME_ROUNDS
    rngs = [np.random.default_rng(s) for s in seeds]
    if metrics is not None:
        c_fail = metrics.counter("churn.failures")
        c_rejoin = metrics.counter("churn.rejoins")
        h_down = metrics.histogram("churn.downtime")
    else:
        c_fail = c_rejoin = h_down = None

    # Self-re-arming callbacks (engine fast path): each server alternates
    # between one pending fail event and one pending rejoin event.
    def _fail(j: int) -> None:
        on_fail(j)
        down = rngs[j].exponential(mean_down)
        if c_fail is not None:
            c_fail.inc()
            h_down.observe(down)
        env.call_in(down, _rejoin, j)

    def _rejoin(j: int) -> None:
        on_rejoin(j)
        if c_rejoin is not None:
            c_rejoin.inc()
        env.call_in(rngs[j].exponential(mean_up), _fail, j)

    for j in range(len(seeds)):
        env.call_in(rngs[j].exponential(mean_up), _fail, j)


def start_trace_churn(
    env: Environment,
    trace: FailureTrace,
    *,
    m: int,
    agent_interval: float,
    on_fail: Callable[[int], None],
    on_rejoin: Callable[[int], None],
    metrics=None,
) -> int:
    """Schedule every event of a :class:`FailureTrace` (times in agent
    rounds scaled by ``agent_interval``) through the same driver
    callbacks as :func:`start_churn`; returns the number of events
    scheduled.  Events for servers ``>= m`` are skipped, and overlapping
    fail/rejoin windows are tolerated — the driver's alive-guards make
    duplicate transitions no-ops.  No RNG is involved: replaying a trace
    is exactly as deterministic as the trace itself."""
    if metrics is not None:
        c_fail = metrics.counter("churn.failures")
        c_rejoin = metrics.counter("churn.rejoins")
        h_down = metrics.histogram("churn.downtime")
    else:
        c_fail = c_rejoin = h_down = None

    def _fail(j: int) -> None:
        on_fail(j)
        if c_fail is not None:
            c_fail.inc()

    def _rejoin(j: int) -> None:
        on_rejoin(j)
        if c_rejoin is not None:
            c_rejoin.inc()

    n = 0
    for t, srv, down in trace.events:
        j = int(srv)
        if j >= m:
            continue
        env.call_at(float(t) * agent_interval, _fail, j)
        env.call_at(float(t + down) * agent_interval, _rejoin, j)
        if h_down is not None:
            h_down.observe(float(down) * agent_interval)
        n += 1
    return n
