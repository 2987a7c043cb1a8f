"""`LiveSimulation` — the full control plane inside one event heap.

Couples, on a single :class:`repro.sim.events.Environment`:

* the async gossip layer (:class:`repro.livesim.gossip.AsyncGossip`),
* the async MinE exchange agents
  (:class:`repro.livesim.agents.ExchangeAgents`),
* the churn/failure model (:mod:`repro.livesim.churn`),
* optional Poisson request traffic routed by the *live* allocation
  (the :mod:`repro.sim.runner` stream model, but with routing fractions
  that change as exchanges apply).

Everything is deterministic given ``seed``: one event heap orders all
events, and every stochastic process (gossip jitter per server, agent
jitter per server, churn per server, traffic per organization, message
loss) draws from its own :class:`numpy.random.SeedSequence`-spawned
stream, so adding or removing one subsystem never perturbs the others.

Control-plane intervals default to multiples of the instance's latency
scale, so the same :class:`LiveConfig` means the same thing on a 0.5 ms
fat-tree and a 90 ms WAN ring.  Named presets (``"ideal"``, ``"lossy"``,
``"churn"``) cover the sweep axes of the benchmarks.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from typing import TYPE_CHECKING

from .. import obs as _obs
from ..core.instance import Instance
from ..core.state import AllocationState
from ..sim.events import Environment
from ..sim.server import Request, SimServer
from .agents import AgentStats, ExchangeAgents
from .churn import (
    ChurnModel,
    FailureTrace,
    fail_server,
    rejoin_server,
    start_churn,
    start_trace_churn,
)
from .gossip import AsyncGossip, GossipStats
from .net import ControlNetwork, NetStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.byz)
    from ..byz.adversaries import ByzantineModel

__all__ = [
    "LiveConfig",
    "LiveReport",
    "LiveSimulation",
    "LIVE_PRESETS",
    "get_live_preset",
]

_LIVESIM_ENTROPY = 0x11FE5137


#: Absolute improvement floor: the agents neither propose nor apply an
#: exchange expected to improve ΣCi by this much or less.
MIN_IMPROVEMENT = 1e-9
#: Relative improvement floor: exchanges expected to improve ΣCi by
#: less than ``MIN_IMPROVEMENT_REL · initial_cost / m`` are not
#: proposed, so the *total* improvement a fleet can forgo is about
#: ``MIN_IMPROVEMENT_REL`` of the initial cost regardless of fleet
#: size — orders of magnitude below the paper's 2 % bound.  Keeps a
#: converged fleet from grinding out float-dust exchanges forever
#: (each perturbs views, defeating back-off).
MIN_IMPROVEMENT_REL = 3e-4


@dataclass(frozen=True)
class LiveConfig:
    """Control-plane parameters of one live simulation.

    Interval/timeout fields left at ``None`` are resolved against the
    instance's latency scale (median finite positive latency ``base``,
    maximum finite latency ``far``):

    * ``gossip_interval = 3·base`` — views refresh a few times per agent
      round, the paper's "gossip O(log m) times more frequently";
    * ``agent_interval = 6·base`` — one expected proposal per server per
      round;
    * ``propose_timeout = 3·far + base`` — covers the round trip to the
      farthest peer with slack;
    * ``accept_timeout = 2·propose_timeout`` — the acceptor always
      outlives the proposer's retry, so locks cannot leak.

    ``churn_rate`` is restarts per server per agent round (see
    :class:`repro.livesim.churn.ChurnModel`); ``arrival_rate_scale``
    scales the Poisson request traffic exactly as in
    :func:`repro.sim.runner.simulate_stream` (0 disables traffic).

    Fixed parameters are module constants, not fields: the improvement
    floors here, the back-off in :mod:`repro.livesim.agents`, the robust
    merge's in :mod:`repro.livesim.gossip` and the mean churn downtime in
    :mod:`repro.livesim.churn`.
    """

    gossip_interval: float | None = None
    agent_interval: float | None = None
    propose_timeout: float | None = None
    accept_timeout: float | None = None
    p_drop: float = 0.0
    churn_rate: float = 0.0
    arrival_rate_scale: float = 0.0
    #: Gossip wire format: ``"full"`` ships whole tables, ``"delta"``
    #: ships version-vector diffs (O(changes) payloads, bit-identical
    #: merge results — see :mod:`repro.livesim.gossip`).
    gossip_mode: str = "full"
    #: Partner-selection strategy of the agents ("auto" = exact on small
    #: fleets, O(m) screened beyond ``EXACT_BUDGET``) and the screened
    #: candidate count.
    agent_strategy: str = "auto"
    agent_screen_width: int = 16
    #: Gossip accept rule: ``"legacy"`` trusts every entry by version;
    #: ``"robust"`` adds quorum + trimmed-mean filtering, placement
    #: clamps, pair-sync observations and per-server suspicion scores
    #: (see :mod:`repro.livesim.gossip`).  Legacy runs are bit-identical
    #: to earlier releases.
    merge_mode: str = "legacy"
    #: Adversary plane (:class:`repro.byz.ByzantineModel`): ``None`` (or
    #: ``f = 0``) leaves the honest path untouched — the adversaries'
    #: RNG streams are entropy-separated, so honest traces never shift.
    byzantine: "ByzantineModel | None" = None
    #: Replay an explicit failure schedule (:class:`repro.livesim.churn.
    #: FailureTrace`) on top of (or instead of) the memoryless
    #: ``churn_rate`` process; both route through the same fail/rejoin
    #: path, so queue drops and owner re-submission couple identically.
    churn_trace: FailureTrace | None = None

    def __post_init__(self) -> None:
        # Width 0 would screen in every server (argpartition's [-0:] is the
        # whole array); a negative rate would silently send no traffic.
        if self.agent_screen_width < 1:
            raise ValueError(f"agent_screen_width must be >= 1, got {self.agent_screen_width}")
        if self.arrival_rate_scale < 0:
            raise ValueError(f"arrival_rate_scale must be >= 0, got {self.arrival_rate_scale}")

    def resolve(self, inst: Instance) -> "LiveConfig":
        """A copy with every ``None`` interval filled from the latency
        scale of ``inst``."""
        lat = inst.latency[np.isfinite(inst.latency) & (inst.latency > 0)]
        base = float(np.median(lat)) if lat.size else 1.0
        base = max(base, 1e-3)
        far = float(lat.max()) if lat.size else 1.0
        gossip = self.gossip_interval if self.gossip_interval is not None else 3.0 * base
        agent = self.agent_interval if self.agent_interval is not None else 6.0 * base
        propose = (
            self.propose_timeout
            if self.propose_timeout is not None
            else 3.0 * far + base
        )
        accept = (
            self.accept_timeout
            if self.accept_timeout is not None
            else 2.0 * propose
        )
        return replace(
            self,
            gossip_interval=float(gossip),
            agent_interval=float(agent),
            propose_timeout=float(propose),
            accept_timeout=float(accept),
        )


#: Named control-plane presets swept by the benchmarks: the ideal
#: asynchronous plane, a lossy WAN, and a churning fleet (message loss
#: plus server restarts — the re-convergence acceptance case).
LIVE_PRESETS: dict[str, LiveConfig] = {
    "ideal": LiveConfig(),
    "lossy": LiveConfig(p_drop=0.10),
    "churn": LiveConfig(p_drop=0.02, churn_rate=0.004),
}


def get_live_preset(name: str) -> LiveConfig:
    """Look up a named control-plane preset."""
    try:
        return LIVE_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(LIVE_PRESETS))
        raise KeyError(f"unknown live preset {name!r}; known: {known}") from None


@dataclass
class LiveReport:
    """Everything one :meth:`LiveSimulation.run` measured."""

    horizon: float
    times: np.ndarray             #: sample times of the ΣCi trajectory
    costs: np.ndarray             #: ΣCi at those times
    initial_cost: float
    final_cost: float
    optimum_cost: float           #: offline optimum (``nan`` if not given)
    final_loads: np.ndarray
    per_server_error: np.ndarray | None  #: |l_final − l*| when optimum known
    failures: list[tuple[float, int]]
    rejoins: list[tuple[float, int]]
    net: NetStats
    gossip: GossipStats
    agents: AgentStats
    mean_view_age: float
    events_processed: int
    wall_s: float
    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_resubmitted: int = 0  #: dropped by a crash, re-sent by owners
    request_mean_latency: float = float("nan")
    trace: list = field(default_factory=list, repr=False)
    #: Wall-clock attribution table by callback kind (only with
    #: ``LiveSimulation(..., profile=True)``; see ``repro.obs.profile``).
    profile: dict | None = field(default=None, repr=False)
    #: Per-server suspicion scores of the robust merge (``None`` under
    #: the legacy merge).
    suspicion: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s > 0 else float("inf")

    def relative_errors(self) -> np.ndarray:
        """Per-sample relative error of the trajectory vs the optimum."""
        if not np.isfinite(self.optimum_cost) or self.optimum_cost <= 0:
            return np.full_like(self.costs, np.nan)
        return (self.costs - self.optimum_cost) / self.optimum_cost

    @property
    def final_error(self) -> float:
        errs = self.relative_errors()
        return float(errs[-1]) if errs.size else float("nan")

    def time_to_within(self, rel_tol: float) -> float:
        """Earliest sample time from which the trajectory *stays* within
        ``rel_tol`` of the optimum (``nan`` if it never settles there)."""
        errs = self.relative_errors()
        if errs.size == 0 or not np.isfinite(errs[-1]) or errs[-1] > rel_tol:
            return float("nan")
        above = np.flatnonzero(errs > rel_tol)
        idx = 0 if above.size == 0 else int(above[-1]) + 1
        return float(self.times[idx])

    def reconvergence_times(self, rel_tol: float) -> list[float]:
        """For each failure event, the first sample time at which the
        trajectory is back within ``rel_tol`` (``nan`` if never)."""
        errs = self.relative_errors()
        out = []
        for t_fail, _j in self.failures:
            after = np.flatnonzero((self.times >= t_fail) & (errs <= rel_tol))
            out.append(float(self.times[after[0]]) if after.size else float("nan"))
        return out


class LiveSimulation:
    """Run gossip + MinE + churn (+ request traffic) as one live system.

    Every process is a chain of bare callbacks on one
    :class:`repro.sim.events.Environment` (``self.env``), whose single
    ``(time, seq)`` heap orders all of them.

    Parameters
    ----------
    inst:
        The problem instance.
    config:
        Control-plane parameters; ``None`` intervals resolve against the
        instance's latency scale.
    seed:
        Single integer seeding every per-process RNG stream; two
        simulations with equal ``(inst, config, seed)`` produce identical
        event traces and final allocations.
    state:
        Starting allocation (default: everyone runs locally).
    optimum:
        Offline optimum for error/convergence metrics — a cost, or an
        :class:`AllocationState` (also enabling per-server load errors).
    obs:
        An :class:`repro.obs.Observability` context; defaults to the
        process-global one installed by :func:`repro.obs.enable` (usually
        ``None`` — the whole plane off).  Instrumentation never draws
        randomness or schedules events, so an observed run replays the
        exact event trace of an unobserved one.
    profile:
        Arm the wall-clock callback profiler; the attribution table is
        returned in :attr:`LiveReport.profile`.
    """

    def __init__(
        self,
        inst: Instance,
        *,
        config: LiveConfig | None = None,
        seed: int = 0,
        state: AllocationState | None = None,
        optimum: "AllocationState | float | None" = None,
        obs: "_obs.Observability | None" = None,
        profile: bool = False,
    ):
        self.inst = inst
        self.config = (config if config is not None else LiveConfig()).resolve(inst)
        self.state = state.copy() if state is not None else AllocationState.initial(inst)
        if isinstance(optimum, AllocationState):
            self.optimum_cost = optimum.total_cost()
            self.optimum_loads: np.ndarray | None = optimum.loads.copy()
        elif optimum is not None:
            self.optimum_cost = float(optimum)
            self.optimum_loads = None
        else:
            self.optimum_cost = float("nan")
            self.optimum_loads = None

        m = inst.m
        cfg = self.config
        self.obs = obs if obs is not None else _obs.get_active()
        self._tracer = self.obs.tracer if self.obs is not None else None
        self.env = Environment()
        if profile:
            self._profiler = _obs.CallbackProfiler()
            self.env.set_profiler(self._profiler)
        else:
            self._profiler = None
        self.alive = np.ones(m, dtype=bool)
        self.trace: list = []
        self.failures: list[tuple[float, int]] = []
        self.rejoins: list[tuple[float, int]] = []
        self._cost_times: list[tuple[float, float]] = []
        self._wall = 0.0
        # Cost sampling: small fleets recompute ΣCi exactly at every
        # sample (cheap, keeps the trajectory monotone to the last ulp);
        # large fleets track it incrementally from the exact per-exchange
        # improvements (an O(m²) recompute per exchange would dominate
        # the run) and re-anchor exactly at run boundaries and churn
        # events.
        self._incremental_cost = m > 256
        self._running_cost = 0.0

        root = np.random.SeedSequence(
            entropy=_LIVESIM_ENTROPY, spawn_key=(int(seed),)
        )
        gossip_par, agent_par, churn_par, traffic_par, drop_seq = root.spawn(5)

        self.net = ControlNetwork(
            self.env,
            inst.latency,
            self.alive,
            p_drop=cfg.p_drop,
            drop_rng=np.random.default_rng(drop_seq),
        )
        self.gossip = AsyncGossip(
            self.env,
            self.net,
            inst,
            self.state,
            self.alive,
            gossip_par.spawn(m),
            interval=cfg.gossip_interval,
            mode=cfg.gossip_mode,
            merge_mode=cfg.merge_mode,
            obs=self.obs,
        )
        initial_cost = self.state.total_cost()
        self.agents = ExchangeAgents(
            self.env,
            self.net,
            self.state,
            self.gossip,
            self.alive,
            agent_par.spawn(m),
            interval=cfg.agent_interval,
            propose_timeout=cfg.propose_timeout,
            accept_timeout=cfg.accept_timeout,
            min_improvement=max(
                MIN_IMPROVEMENT, MIN_IMPROVEMENT_REL * initial_cost / m
            ),
            strategy=cfg.agent_strategy,
            screen_width=cfg.agent_screen_width,
            on_exchange=self._on_exchange,
            trace=self.trace,
            obs=self.obs,
        )
        start_churn(
            self.env,
            ChurnModel(rate=cfg.churn_rate),
            churn_par.spawn(m),
            agent_interval=cfg.agent_interval,
            on_fail=self._fail,
            on_rejoin=self._rejoin,
            metrics=self.obs.metrics if self.obs is not None else None,
        )
        if cfg.churn_trace is not None:
            start_trace_churn(
                self.env,
                cfg.churn_trace,
                m=m,
                agent_interval=cfg.agent_interval,
                on_fail=self._fail,
                on_rejoin=self._rejoin,
                metrics=self.obs.metrics if self.obs is not None else None,
            )

        # Adversary plane: attached last so its publish wrap covers every
        # later publish (rejoin announcements included) but never the
        # honest t = 0 bootstrap.  Entropy-separated streams; with no
        # model (or f = 0) nothing is wrapped or scheduled at all.
        self.byz = None
        if cfg.byzantine is not None and cfg.byzantine.f > 0:
            from ..byz.adversaries import AdversaryPlane  # lazy: cycle

            self.byz = AdversaryPlane(
                self.env,
                self.gossip,
                self.state,
                self.alive,
                cfg.byzantine,
                seed=seed,
                agent_interval=cfg.agent_interval,
                agents=self.agents,
            )

        self._requests: list[Request] = []
        self._requests_generated = 0
        self._requests_failed = 0
        self._requests_resubmitted = 0
        if cfg.arrival_rate_scale > 0:
            self.servers = [
                SimServer(self.env, j, float(inst.speeds[j]), obs=self.obs)
                for j in range(m)
            ]
            self._traffic_rngs: dict[int, np.random.Generator] = {}
            # Seeds are kept for all organizations: a demand shift can
            # hand load (and thus an arrival process) to an org that
            # started at zero, whose stream must still be deterministic.
            self._traffic_seeds = traffic_par.spawn(m)
            self._traffic_rates = inst.loads * cfg.arrival_rate_scale
            # One self-re-arming loop per org, never more: a loop whose
            # rate dropped to zero stays "armed" until its pending
            # callback fires and retires it, and apply_demand must not
            # arm a second one in the meantime.
            self._traffic_armed = np.zeros(m, dtype=bool)
            for i in range(m):
                if self._traffic_rates[i] > 0:
                    self._start_traffic(i)
        else:
            self.servers = []

        if self.obs is not None:
            # One surface over every subsystem's counters: the Stats
            # dataclasses stay the record sites, the registry reads them
            # live.  Series sample on the agent-interval grid.
            reg = self.obs.metrics
            reg.configure_series(cfg.agent_interval)
            reg.bind("net", self.net.stats, rename={"dropped": "drops"})
            reg.bind("gossip", self.gossip.stats)
            reg.bind("agents", self.agents.stats)
            reg.gauge("sched.queue_depth", fn=lambda: self.env.queue_size)
            reg.gauge("livesim.cost", fn=lambda: self._running_cost)
            if self.gossip.suspicion is not None:
                view = self.gossip.suspicion_view
                reg.gauge("byz.suspicion.max", fn=lambda: float(view().max()))
                reg.gauge("byz.suspicion.mean", fn=lambda: float(view().mean()))
                if m <= 64:
                    for j in range(m):
                        reg.gauge(
                            f"byz.suspicion.{j}",
                            fn=lambda j=j: float(view()[j]),
                        )
            if self.byz is not None:
                reg.bind("byz", self.byz.stats)

        self._sample_cost(exact=True)  # t = 0 anchor

    # ------------------------------------------------------------------
    def _sample_cost(self, exact: bool = False) -> None:
        if exact or not self._incremental_cost:
            self._running_cost = self.state.total_cost()
        self._cost_times.append((self.env.now, self._running_cost))
        if self.obs is not None:
            self.obs.sample(self.env.now)

    def _on_exchange(self, ex) -> None:
        # The improvement is exact (computed from the applied columns),
        # so the running cost tracks ΣCi without the O(m²) recompute.
        self._running_cost -= ex.improvement
        self._sample_cost()

    def _fail(self, j: int) -> None:
        if not self.alive[j]:
            return
        self.alive[j] = False
        self.agents.cancel(j)
        displaced = fail_server(self.state, j)
        self.agents.notify_allocation_changed()
        self.failures.append((self.env.now, j))
        self.trace.append(("fail", self.env.now, j, displaced))
        if self._tracer is not None:
            self._tracer.instant(
                "churn.fail", self.env.now, track=j, displaced=float(displaced)
            )
        if self.servers:
            # A restart loses the server's request queue too: the owners
            # re-submit every dropped request, routed by the live (post-
            # failover) fractions — the churn model and the request
            # plane close the loop.
            for req in self.servers[j].fail():
                self._resubmit(req)
        self._sample_cost(exact=True)

    def _rejoin(self, j: int) -> None:
        if self.alive[j]:
            return
        self.alive[j] = True
        rejoin_server(self.state, j)
        self.agents.notify_allocation_changed()
        # Announce the comeback: the empty server republishes itself so
        # gossip spreads the rebalancing opportunity.
        self.gossip.publish(j)
        self.rejoins.append((self.env.now, j))
        self.trace.append(("rejoin", self.env.now, j))
        if self._tracer is not None:
            self._tracer.instant("churn.rejoin", self.env.now, track=j)
        self._sample_cost(exact=True)

    def _start_traffic(self, i: int) -> None:
        """Arm organization ``i``'s Poisson arrival loop — at most one
        loop per org (each org's stream comes from its own pre-spawned
        seed, so re-arming later is still deterministic)."""
        if self._traffic_armed[i]:
            return
        self._traffic_armed[i] = True
        rng = self._traffic_rngs.get(i)
        if rng is None:
            rng = self._traffic_rngs[i] = np.random.default_rng(
                self._traffic_seeds[i]
            )
        self.env.call_in(
            rng.exponential(1.0 / self._traffic_rates[i]), self._traffic_fire, i
        )

    def _route(self, i: int, rng: np.random.Generator) -> int:
        # Live routing fractions; clip float dust from incremental
        # column updates so the probabilities stay a distribution.
        p = np.clip(self.state.R[i], 0.0, None) / float(self.inst.loads[i])
        p = p / p.sum()
        return int(rng.choice(self.inst.m, p=p))

    def _traffic_fire(self, i: int) -> None:
        rate = self._traffic_rates[i]
        if rate <= 0:
            self._traffic_armed[i] = False
            return  # demand shifted away from this org: loop retires
        rng = self._traffic_rngs[i]
        self._requests_generated += 1
        j = self._route(i, rng)
        delay = float(self.inst.latency[i, j])
        tracer = self._tracer
        if not self.alive[j] or not np.isfinite(delay):
            self._requests_failed += 1
            if tracer is not None:
                tracer.instant(
                    "request.drop", self.env.now, track=i, owner=i, server=j
                )
        else:
            req = Request(owner=i, server=j, t_submit=self.env.now)
            if tracer is not None:
                # submit → route as one instant: routing is synchronous.
                req.trace_id = tracer.instant(
                    "request.submit", self.env.now, track=i, owner=i, server=j
                )
            self._requests.append(req)
            self.env.call_in(delay, self._request_arrives, req)
        self.env.call_in(rng.exponential(1.0 / rate), self._traffic_fire, i)

    def _resubmit(self, req: Request) -> None:
        """Re-submit a request dropped by a server crash from its owner,
        keeping the original submit time so the measured latency covers
        the whole journey including the lost attempt."""
        i = req.owner
        self._requests_resubmitted += 1
        tracer = self._tracer
        if tracer is not None:
            resub_sid = tracer.instant(
                "request.resubmit",
                self.env.now,
                parent=req.trace_id or None,
                track=i,
                owner=i,
            )
        if self.inst.loads[i] <= 0:
            self._requests_failed += 1
            return
        j = self._route(i, self._traffic_rngs[i])
        delay = float(self.inst.latency[i, j])
        if not self.alive[j] or not np.isfinite(delay):
            self._requests_failed += 1
            if tracer is not None:
                tracer.instant(
                    "request.drop", self.env.now,
                    parent=resub_sid, track=i, owner=i, server=j,
                )
            return
        retry = Request(owner=i, server=j, t_submit=req.t_submit)
        if tracer is not None:
            retry.trace_id = resub_sid
        self._requests.append(retry)
        self.env.call_in(delay, self._request_arrives, retry)

    def _request_arrives(self, req: Request) -> None:
        if self.alive[req.server]:
            self.servers[req.server].submit(req)
        else:
            self._requests_failed += 1
            if self._tracer is not None:
                self._tracer.instant(
                    "request.drop",
                    self.env.now,
                    parent=req.trace_id or None,
                    track=req.server,
                    owner=req.owner,
                    server=req.server,
                )

    # ------------------------------------------------------------------
    @property
    def cost_samples(self) -> list[tuple[float, float]]:
        """The sampled ``(sim time, ΣCi)`` trajectory so far — cost
        changes only at exchange/churn/demand events, so it is a step
        function anchored exactly at every run boundary."""
        return list(self._cost_times)

    def apply_demand(self, loads: np.ndarray) -> None:
        """Shift the demand vector in place: the non-stationary hook of
        the tracking plane (:class:`repro.tracking.TrackingSimulation`).

        The allocation keeps its routing *fractions* (each organization's
        volume is rescaled to its new demand — the warm start), the
        gossip layer republishes every live server's new true load, the
        agents refresh their owner set and drop their back-off, and the
        Poisson traffic rates re-scale.  Topology and speeds are static;
        only the loads change.
        """
        from ..core.dynamic import retarget_rows  # lazy: avoid cycle

        new_inst = self.inst.with_loads(loads)
        retarget_rows(self.state.R, self.inst.loads, new_inst.loads)
        self.inst = new_inst
        self.state.inst = new_inst
        self.state.refresh_loads()
        self.gossip.refresh_demand(new_inst)
        self.agents.notify_demand_changed()
        if self.servers:
            old_rates = self._traffic_rates
            self._traffic_rates = new_inst.loads * self.config.arrival_rate_scale
            for i in np.flatnonzero((old_rates <= 0) & (self._traffic_rates > 0)):
                self._start_traffic(int(i))
        self.trace.append(("demand", self.env.now, float(new_inst.total_load)))
        if self._tracer is not None:
            self._tracer.instant(
                "livesim.demand_shift",
                self.env.now,
                total_load=float(new_inst.total_load),
            )
        self._sample_cost(exact=True)

    def run(
        self, *, rounds: float | None = None, until: float | None = None
    ) -> LiveReport:
        """Advance the simulation by ``rounds`` agent intervals (or to
        absolute sim-time ``until``) and return the report so far.

        May be called repeatedly to extend a run; metrics accumulate.
        """
        if (rounds is None) == (until is None):
            raise ValueError("give exactly one of rounds= or until=")
        horizon = (
            float(until)
            if until is not None
            else self.env.now + float(rounds) * self.config.agent_interval
        )
        t0 = _time.perf_counter()
        self.env.run(until=horizon)
        self._wall += _time.perf_counter() - t0
        self._sample_cost(exact=True)  # re-anchor incremental tracking
        return self.report()

    def report(self) -> LiveReport:
        """The metrics accumulated so far."""
        times = np.asarray([t for t, _ in self._cost_times])
        costs = np.asarray([c for _, c in self._cost_times])
        completed = [r for r in self._requests if not np.isnan(r.t_complete)]
        mean_lat = (
            float(np.mean([r.latency for r in completed]))
            if completed
            else float("nan")
        )
        per_server_error = (
            np.abs(self.state.loads - self.optimum_loads)
            if self.optimum_loads is not None
            else None
        )
        return LiveReport(
            horizon=self.env.now,
            times=times,
            costs=costs,
            initial_cost=float(costs[0]),
            final_cost=float(costs[-1]),
            optimum_cost=self.optimum_cost,
            final_loads=self.state.loads.copy(),
            per_server_error=per_server_error,
            failures=list(self.failures),
            rejoins=list(self.rejoins),
            net=self.net.stats,
            gossip=self.gossip.stats,
            agents=self.agents.stats,
            mean_view_age=self.gossip.mean_view_age(),
            events_processed=self.env.processed,
            wall_s=self._wall,
            requests_submitted=self._requests_generated,
            requests_completed=len(completed),
            requests_failed=self._requests_failed,
            requests_resubmitted=self._requests_resubmitted,
            request_mean_latency=mean_lat,
            trace=self.trace,
            profile=(
                self._profiler.table() if self._profiler is not None else None
            ),
            suspicion=self.gossip.suspicion_view(),
        )
