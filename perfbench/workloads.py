"""The four benchmark workloads.

Each workload is a function ``(seeds, seconds, clock, trace) -> Result``.
``seeds.inputs`` fixes the workload's inputs (instances, demand trace);
``seeds.run`` seeds the live control plane's random streams (gossip and
agent jitter, message loss, traffic) where the API keeps them apart.
With ``trace=False`` it measures the end-to-end metrics; with
``trace=True`` it runs the same work twice in this process — once plain,
once with spans recorded at every layer boundary — checks that the two
replay each other exactly, and reports the per-layer split.

The program is driven only through its public API (``LiveSimulation``,
``TrackingSimulation``, ``run_byz``, ``ScenarioRunner``,
``solve_optimal``).  Layers are timed from here, by wrapping the
functions and handlers they call; the program itself is unchanged.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import NamedTuple

import numpy as np

import repro.byz.driver as byz_driver
import repro.core.distributed as core_distributed
import repro.core.qp as core_qp
import repro.engine.registry as engine_registry
import repro.livesim.agents as livesim_agents
import repro.sim.runner as sim_runner
import repro.tracking.driver as tracking_driver
import repro.workloads.cache as workloads_cache
import repro.workloads.runner as workloads_runner
from repro import solve_optimal
from repro.byz import BYZ_PRESETS, run_byz
from repro.livesim import LiveSimulation, get_live_preset
from repro.tracking import TrackingSimulation, trace_epochs
from repro.workloads import PRESETS, TRUST_PRESETS, ScenarioRunner, get_scenario

from checks import Checks, certify, check_allocation, check_cost, rel_error
from spans import Patches, SpanRecorder

#: The paper's convergence bound (Table I): ΣCi within 2 % of optimal.
REL_TOL = 0.02
#: MinE's stop tolerance inside ``ScenarioRunner`` cells.
MINE_REL_TOL = 0.01

# converge-m2000
CONVERGE_M = 2000
CONVERGE_SCREEN_WIDTH = 8
#: Convergence is checked at every chunk boundary; one-round chunks stop
#: the run within a round of the bound, so the rounds run (and with them
#: the bytes shipped) do not jump by a whole chunk between seeds.
CONVERGE_CHUNK_ROUNDS = 1
CONVERGE_MAX_ROUNDS = 120
#: The traced run covers this prefix (the run to the bound takes 51–55).
CONVERGE_TRACE_ROUNDS = 25

# track-drift-m500
TRACK_M = 500
TRACK_TRACE = "drift"
#: The first epoch is a cold start from the all-local allocation, which
#: needs 11 to 22 rounds at m = 500 depending on the instance and seed
#: (more than the trace's 20 on input seed 1); it runs this long.
TRACK_FIRST_EPOCH_ROUNDS = 40.0
#: A drift epoch starts 6–7 % above its optimum and is back within the
#: bound after 2–3.5 rounds, so the trace's epochs are shortened to this:
#: four drift epochs cost what two of the trace's 20 rounds did, and the
#: re-tracking they sum to varies half as much between run seeds.
TRACK_EPOCH_ROUNDS = 10.0
TRACK_TRAFFIC_SCALE = 1e-4
#: One drift epoch per this many seconds of ``--seconds``, 2..7 of them.
TRACK_SECONDS_PER_EPOCH = 5

# small-fleets-m24
SMALL_M = 24
SMALL_ROUNDS = 160
#: The trust-restricted presets relay over fewer links: a 3-hop trust
#: ring at m = 24 was still 2.7 % above its optimum after 160 rounds on
#: one instance and run seed, and within 0.8 % after 240 on all of 40
#: run seeds.
SMALL_TRUST_ROUNDS = 240
SMALL_SEEDS_PER_PRESET = 1
#: small-fleets-m24 runs its operations this many times in one process
#: and counts each at its fastest run: the host's speed swings by a
#: quarter over a few seconds, which one 8–10 s pass cannot average out.
SMALL_PASSES = 2

# paper-sweep-m200
SWEEP_M = 200


class Seeds(NamedTuple):
    run: int
    inputs: int


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Run-level checks (replay, certificates); an operation whose own
    #: checks fail is counted in ``failed`` instead.
    checks: Checks = field(default_factory=Checks)
    op_errors: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    spans: SpanRecorder | None = None

    def op(self, checks: Checks) -> None:
        """Count one operation, failed when any of its checks failed."""
        self.attempted += 1
        if not checks.ok:
            self.failed += 1
            self.op_errors.extend(checks.errors)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


class Clock:
    """Set-up runs from the process's start to :meth:`setup_done`;
    optimum solves that set-up code cannot avoid are moved to the timed
    part (``setup_solve_s``)."""

    def __init__(self, process_start: float):
        self.process_start = process_start
        self.t_timed = None
        self.setup_solve_s = 0.0

    def setup_done(self, solve_s: float = 0.0) -> None:
        self.t_timed = perf_counter()
        self.setup_solve_s = solve_s

    @property
    def setup_s(self) -> float:
        return self.t_timed - self.process_start - self.setup_solve_s

    def wall_s(self) -> float:
        return perf_counter() - self.t_timed + self.setup_solve_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _lossy(**changes):
    return replace(get_live_preset("lossy"), **changes)


def _fingerprint(sim, report) -> tuple:
    return (
        report.events_processed,
        sim.agents.stats.exchanges,
        sim.net.stats.sent,
        hashlib.sha1(np.ascontiguousarray(sim.state.R).tobytes()).hexdigest(),
    )


def _rounds(sim, t: float) -> float:
    return t / sim.config.agent_interval


# ----------------------------------------------------------------------
# Tracing helpers
# ----------------------------------------------------------------------
def _install_core_spans(rec: SpanRecorder) -> None:
    """Spans around the public functions of the solver layers."""
    rec.patch(core_qp, "waterfill", "core.qp.waterfill")
    rec.patch(core_qp, "solve_coordinate_descent", "core.qp.solve")
    rec.patch(tracking_driver, "solve_coordinate_descent", "core.qp.solve")
    rec.patch(core_distributed, "screen_candidates", "core.distributed.screen")
    rec.patch(core_distributed, "batch_best_transfers", "core.distributed.kernel")
    rec.patch(core_distributed, "batch_exchange_stats", "core.distributed.exact")
    rec.patch(core_distributed.MinEOptimizer, "run", "core.distributed.mine")
    rec.patch(core_distributed.MinEOptimizer, "sweep", "core.distributed.mine_sweep")
    rec.patch(livesim_agents, "propose_partner", "livesim.agents.propose")
    rec.patch(livesim_agents, "apply_pair_exchange", "livesim.agents.apply")
    rec.patch(
        engine_registry,
        "best_response_dynamics",
        "core.game.best_response",
        after=lambda _t, _a, out: rec.count("best_response.rounds", out[1].rounds),
    )
    rec.patch(engine_registry, "simulate_stream", "sim.runner.stream")
    rec.patch(workloads_runner, "evaluate_cell", "engine.cell")


def _instrument_sim(rec: SpanRecorder, sim, profilers: list) -> None:
    """Spans on one live simulation: every event callback (through the
    engine's profiler hook), the event loop itself, every handler sent
    through the control network, gossip publishes and merges."""
    prof = rec.profiler(sim.env)
    profilers.append(prof)
    sim.env.set_profiler(prof)
    sim.env.run = rec.wrap("sim.events.run", sim.env.run)
    rec.instrument_send(sim.net)
    gossip = sim.gossip
    gossip.publish = rec.wrap("livesim.gossip.publish", gossip.publish)
    name = (
        "livesim.gossip.robust_merge"
        if gossip.merge_mode == "robust"
        else "livesim.gossip.merge"
    )
    counts = gossip.update_counts

    def changed(token, args, _out):
        if counts[args[1]] != token:
            rec.count("merge.useful")

    gossip._merge = rec.wrap(
        name, gossip._merge, before=lambda args: counts[args[1]], after=changed
    )


_WALKED = (list, tuple, dict, np.ndarray)


def _held_bytes(roots) -> int:
    """Bytes of ``roots`` and of everything the lists, tuples, dicts and
    ndarrays among them hold (``sys.getsizeof``), each object counted
    once by identity; an ndarray view counts its header and its base.
    Leaves (numbers, other objects) are deduplicated with numpy, since
    a fleet-scale peer list holds millions of them."""
    seen: set[int] = set()
    total = 0
    leaf_ids, leaf_sizes = [], []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            if isinstance(obj.base, np.ndarray):
                stack.append(obj.base)
            continue
        items = [*obj.keys(), *obj.values()] if isinstance(obj, dict) else obj
        inner = [x for x in items if isinstance(x, _WALKED)]
        stack.extend(inner)
        if len(inner) < len(items):
            leaves = [x for x in items if not isinstance(x, _WALKED)]
            leaf_ids.append(np.fromiter(map(id, leaves), np.int64, len(leaves)))
            leaf_sizes.append(
                np.fromiter(map(sys.getsizeof, leaves), np.int64, len(leaves))
            )
    if leaf_ids:
        _, first = np.unique(np.concatenate(leaf_ids), return_index=True)
        total += int(np.concatenate(leaf_sizes)[first].sum())
    return total


def _table_mb(sim) -> float:
    """Memory the gossip layer holds in its own containers — tables,
    versions, stamps, delta clocks and floors, claim buffers, peer lists
    — measured on the objects, not derived from m.  What it shares with
    the simulation (instance, allocation, liveness mask) is left out."""
    shared = {id(v) for v in vars(sim).values()}
    roots = [
        v for v in vars(sim.gossip).values()
        if isinstance(v, _WALKED) and id(v) not in shared
    ]
    return _held_bytes(roots) / 1e6


def _layer_metrics(
    res: Result, rec: SpanRecorder, sims, reports, profilers, wall_s: float,
    envs=(),
) -> None:
    """Turn the span summary and the program's counters into the
    per-layer metrics.  Every workload reports every one of them: a
    layer's busy time is given as its share of the traced pass's wall
    (``wall_s``), and a layer that did not run reads 0 in its counts and
    shares.  ``envs`` are event engines the program runs outside a live
    simulation (the sweep's stream simulations)."""
    S = rec.summary()
    res.details["spans"] = S

    def calls(name):
        return S.get(name, {}).get("calls", 0)

    def share(*names):
        return sum(S.get(n, {}).get("total_s", 0.0) for n in names) / wall_s

    def self_share(name):
        return S.get(name, {}).get("self_s", 0.0) / wall_s

    def ratio(num, den):
        return num / den if den else 0.0

    def summed(get):
        return sum(get(r) for r in reports)

    put = res.put
    put("sim.events.processed",
        summed(lambda r: r.events_processed) + sum(e.processed for e in envs), "count")
    put("sim.events.pending_max", max(p.pending_max for p in profilers), "count")
    put("sim.events.self_share", self_share("sim.events.run")
        - sum(p.own_s for p in profilers) / wall_s, "ratio")
    put("livesim.net.sent", summed(lambda r: r.net.sent), "count")
    put("livesim.net.dropped", summed(lambda r: r.net.dropped), "count")
    put("livesim.net.deliver_share", self_share("livesim.net.deliver"), "ratio")

    merges = summed(lambda r: r.gossip.merges)
    put("livesim.gossip.tick_share", share("livesim.gossip.tick"), "ratio")
    put("livesim.gossip.merge_share", share("livesim.gossip.merge"), "ratio")
    put("livesim.gossip.merges", merges, "count")
    put("livesim.gossip.payload_entries", summed(lambda r: r.gossip.payload_entries),
        "count")
    put("livesim.gossip.payload_mb", summed(lambda r: r.gossip.payload_bytes) / 1e6,
        "MB")
    put("livesim.gossip.useful_merge_frac",
        ratio(rec.counts.get("merge.useful", 0), merges), "ratio")
    put("livesim.gossip.table_mb", max((_table_mb(s) for s in sims), default=0.0),
        "MB")
    put("livesim.gossip.robust_merge_share", share("livesim.gossip.robust_merge"),
        "ratio")
    put("livesim.gossip.claims", summed(lambda r: r.gossip.claims), "count")
    put("byz.adversaries_share", share("byz.adversaries.tick"), "ratio")

    proposals = summed(lambda r: r.agents.proposals)
    exchanges = summed(lambda r: r.agents.exchanges)
    put("livesim.agents.act_share", share("livesim.agents.act"), "ratio")
    put("livesim.agents.handshake_share", share(
        "livesim.agents.on_propose", "livesim.agents.on_accept",
        "livesim.agents.on_reject", "livesim.agents.on_done",
        "livesim.agents.expire",
    ), "ratio")
    put("livesim.agents.apply_share", share("livesim.agents.apply"), "ratio")
    put("livesim.agents.proposals", proposals, "count")
    put("livesim.agents.skipped_proposals",
        summed(lambda r: r.agents.skipped_proposals), "count")
    put("livesim.agents.exchanges", exchanges, "count")
    put("livesim.agents.rejects", summed(lambda r: r.agents.rejects), "count")
    put("livesim.agents.propose_timeouts",
        summed(lambda r: r.agents.propose_timeouts), "count")
    put("livesim.agents.exchanges_per_proposal", ratio(exchanges, proposals), "ratio")

    # The agents are the kernel's only callers on the live workloads.
    # Their counters cover the exact path too (small-fleets-m24's exact
    # agents count there without calling the kernel), so where the
    # kernel ran they must match its traced calls exactly: screened
    # agents never take the exact path.
    kernel_calls = calls("core.distributed.kernel")
    candidates = 0
    if kernel_calls:
        agent_calls = summed(lambda r: r.agents.kernel_calls)
        res.checks.require(
            agent_calls == kernel_calls,
            "the agents' kernel counters match the traced kernel calls",
            f"{agent_calls} vs {kernel_calls}",
        )
        candidates = summed(lambda r: r.agents.kernel_candidates)
    put("core.distributed.screen_share", share("core.distributed.screen"), "ratio")
    put("core.distributed.kernel_share", share("core.distributed.kernel"), "ratio")
    put("core.distributed.kernel_calls", kernel_calls, "count")
    put("core.distributed.kernel_candidates", candidates, "count")
    put("core.distributed.exact_share", share("core.distributed.exact"), "ratio")
    put("core.distributed.mine_share", share("core.distributed.mine"), "ratio")
    put("core.distributed.mine_sweeps", calls("core.distributed.mine_sweep"), "count")

    put("core.qp.solves", calls("core.qp.solve"), "count")
    put("core.qp.waterfill_calls", calls("core.qp.waterfill"), "count")
    put("core.qp.waterfill_share", share("core.qp.waterfill"), "ratio")
    put("core.game.best_response_share", share("core.game.best_response"), "ratio")
    put("core.game.best_response_rounds",
        rec.counts.get("best_response.rounds", 0), "count")

    put("livesim.driver.traffic_share",
        share("livesim.driver.traffic", "livesim.driver.request_arrives"), "ratio")
    put("livesim.driver.requests", summed(lambda r: r.requests_submitted), "count")
    put("sim.server.share", share("sim.server.submit", "sim.server.complete"), "ratio")
    put("sim.runner.stream_share", share("sim.runner.stream"), "ratio")
    put("tracking.driver.apply_demand_share", share("tracking.driver.apply_demand"),
        "ratio")


def _trace_totals(res: Result, wall_s: float, traced_s: float, plain_s: float,
                  *, retrack_rounds_max: float = 0.0,
                  sweep_overhead_s: float = 0.0) -> None:
    """The traced pass's wall, the tracing overhead (traced over plain
    wall of the same work, minus one) and the two figures only one
    workload has (0 elsewhere)."""
    res.put("trace.wall_s", wall_s, "s")
    res.put("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio")
    res.put("tracking.driver.retrack_rounds_max", retrack_rounds_max, "rounds")
    res.put("engine.sweep.overhead_share", sweep_overhead_s / wall_s, "ratio")
    res.details["trace_wall_s"] = {"plain": plain_s, "traced": traced_s}


def _replay(res: Result, label: str, plain, traced) -> None:
    res.checks.require(
        plain == traced, f"{label}: traced run replays the plain run",
        f"plain {plain} vs traced {traced}",
    )


# ----------------------------------------------------------------------
# converge-m2000
# ----------------------------------------------------------------------
def converge(seeds: Seeds, seconds: int, clock: Clock, trace: bool) -> Result:
    """regional-surge at m = 2000, lossy preset, screen width 8, full-table
    gossip: run in fixed chunks until ΣCi is within 2 % of the optimum."""
    res = Result()
    inst = get_scenario("regional-surge").instance(m=CONVERGE_M, seed=seeds.inputs)
    cfg = _lossy(agent_screen_width=CONVERGE_SCREEN_WIDTH)
    if trace:
        return _converge_traced(res, inst, cfg, seeds.run)
    sim = LiveSimulation(inst, config=cfg, seed=seeds.run)
    clock.setup_done()

    t0 = perf_counter()
    opt = solve_optimal(inst)
    solve_s = perf_counter() - t0
    sim.optimum_cost = opt.total_cost()
    sim.optimum_loads = opt.loads.copy()
    anchors = []  # (incrementally tracked ΣCi, exact re-anchor) per chunk
    while True:
        report = sim.run(rounds=CONVERGE_CHUNK_ROUNDS)
        samples = sim.cost_samples
        anchors.append((samples[-2][1], samples[-1][1]))
        if (
            report.final_error <= REL_TOL
            or _rounds(sim, report.horizon) >= CONVERGE_MAX_ROUNDS
        ):
            break
    wall = clock.wall_s()

    checks = Checks()
    cert = certify(inst, opt.R)
    check_allocation(checks, "optimum", inst, opt.R)
    check_cost(checks, "optimum", inst, opt.R, sim.optimum_cost)
    final = check_cost(checks, "final allocation", inst, sim.state.R, report.final_cost)
    check_allocation(checks, "final allocation", inst, sim.state.R)
    drift = max(abs(a - b) / b for a, b in anchors)
    checks.require(
        drift <= 1e-9, "incremental ΣCi matches each exact re-anchor",
        f"max rel drift {drift:.3e}",
    )
    err = rel_error(final, cert["lower_bound"])
    checks.require(err <= REL_TOL, "final error vs certified bound", f"{err:.4%}")
    ttw = report.time_to_within(REL_TOL)
    checks.require(np.isfinite(ttw), "ΣCi settles within the bound")
    res.op(checks)

    res.put("setup_s", clock.setup_s, "s")
    res.put("wall_s", wall, "s")
    res.put("rounds_to_bound", _rounds(sim, ttw), "rounds")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.details.update(
        optimum_solve_s=solve_s,
        sim_wall_s=report.wall_s,
        control_mb=report.gossip.payload_bytes / 1e6,
        rounds_run=_rounds(sim, report.horizon),
        final_error_vs_certified=err,
        optimum_rel_gap=cert["rel_gap"],
        incremental_drift_max=drift,
        events_processed=report.events_processed,
        exchanges=report.agents.exchanges,
    )
    return res


def _converge_traced(res: Result, inst, cfg, seed: int) -> Result:
    plain = LiveSimulation(inst, config=cfg, seed=seed)
    report = plain.run(rounds=CONVERGE_TRACE_ROUNDS)
    expected, plain_s = _fingerprint(plain, report), report.wall_s
    del plain, report
    gc.collect()

    rec = SpanRecorder()
    profilers: list = []
    _install_core_spans(rec)
    try:
        sim = LiveSimulation(inst, config=cfg, seed=seed)
        _instrument_sim(rec, sim, profilers)
        t0 = perf_counter()
        opt = solve_optimal(inst)
        report = sim.run(rounds=CONVERGE_TRACE_ROUNDS)
        wall_s = perf_counter() - t0
    finally:
        rec.restore()
    _replay(res, "converge", expected, _fingerprint(sim, report))

    checks = Checks()
    check_allocation(checks, "optimum", inst, opt.R)
    check_cost(checks, "final allocation", inst, sim.state.R, report.final_cost)
    check_allocation(checks, "final allocation", inst, sim.state.R)
    res.op(checks)
    _layer_metrics(res, rec, [sim], [report], profilers, wall_s)
    _trace_totals(res, wall_s, report.wall_s, plain_s)
    res.details["traced_rounds"] = CONVERGE_TRACE_ROUNDS
    res.spans = rec
    return res


# ----------------------------------------------------------------------
# track-drift-m500
# ----------------------------------------------------------------------
def track_epochs(seconds: int) -> int:
    """The cold epoch and the drift epochs ``--seconds`` asks for."""
    return 1 + int(min(7, max(2, seconds // TRACK_SECONDS_PER_EPOCH)))


class _SolveLog:
    """Captures the tracking plane's per-epoch optimum solves while
    installed (it calls whatever solver was in place when created)."""

    def __init__(self):
        self.solves: list[tuple] = []  # (instance, state, seconds)
        self.patches = Patches()
        self._solve = tracking_driver.solve_coordinate_descent

    def install(self) -> None:
        self.patches.replace(tracking_driver, "solve_coordinate_descent", self)

    def __call__(self, inst, **kwargs):
        t0 = perf_counter()
        state = self._solve(inst, **kwargs)
        self.solves.append((inst, state, perf_counter() - t0))
        return state


def _track_build(seeds: Seeds, seconds: int) -> TrackingSimulation:
    inst = get_scenario("regional-surge").instance(m=TRACK_M, seed=seeds.inputs)
    loads = [n for _, n in trace_epochs(TRACK_TRACE, TRACK_M, seeds.inputs)]
    epochs = [(0.0, loads[0])] + [
        (TRACK_FIRST_EPOCH_ROUNDS + k * TRACK_EPOCH_ROUNDS, n)
        for k, n in enumerate(loads[1 : track_epochs(seconds)])
    ]
    cfg = _lossy(
        gossip_mode="delta",
        agent_strategy="screened",
        arrival_rate_scale=TRACK_TRAFFIC_SCALE,
    )
    return TrackingSimulation(
        inst, epochs, config=cfg, seed=seeds.run, tail_rounds=TRACK_EPOCH_ROUNDS
    )


def _track_check(res: Result, tsim, report, log: _SolveLog) -> None:
    """One operation per epoch, plus every live request (a dropped
    request is a failed operation).  The final allocation belongs to the
    last epoch's operation."""
    live = report.live
    sim = tsim.sim
    final = Checks()
    check_cost(final, "final allocation", sim.inst, sim.state.R, live.final_cost)
    check_allocation(final, "final allocation", sim.inst, sim.state.R)
    final.require(
        live.requests_completed > 0 and np.isfinite(live.request_mean_latency),
        "requests complete",
    )
    res.details["epochs"] = []
    for ep, (inst_k, opt_k, _s) in zip(report.epochs, log.solves):
        last = ep.index == len(report.epochs) - 1
        checks = final if last else Checks()
        cert = certify(inst_k, opt_k.R)
        label = f"epoch {ep.index}"
        check_allocation(checks, f"{label} optimum", inst_k, opt_k.R)
        checks.require(
            abs(cert["cost"] - ep.optimum_cost) <= 1e-9 * cert["cost"],
            f"{label}: independent ΣCi of the optimum",
            f"ours {cert['cost']!r} vs program {ep.optimum_cost!r}",
        )
        start = ep.cost_at_shift / cert["cost"] - 1.0
        end = rel_error(ep.final_cost, cert["lower_bound"])
        checks.require(start > REL_TOL, f"{label} starts above the bound", f"{start:.4%}")
        checks.require(end <= REL_TOL, f"{label} ends within the bound", f"{end:.4%}")
        checks.require(np.isfinite(ep.retrack_rounds), f"{label} re-tracks")
        res.op(checks)
        res.details["epochs"].append(
            {"start_error": start, "final_error_vs_certified": end,
             "retrack_rounds": ep.retrack_rounds, "optimum_rel_gap": cert["rel_gap"]}
        )
    res.checks.require(
        len(report.epochs) == len(log.solves), "one optimum per epoch"
    )
    res.attempted += live.requests_submitted
    res.failed += live.requests_failed


def track(seeds: Seeds, seconds: int, clock: Clock, trace: bool) -> Result:
    """regional-surge at m = 500 under the ``drift`` trace (σ = 0.35):
    lossy preset, delta gossip, screened agents and live Poisson
    traffic; one warm-started optimum per epoch."""
    res = Result()
    if trace:
        return _track_traced(res, seeds, seconds)
    log = _SolveLog()
    log.install()
    try:
        tsim = _track_build(seeds, seconds)
        clock.setup_done(solve_s=log.solves[0][2])
        report = tsim.run()
        wall = clock.wall_s()
    finally:
        log.patches.restore()
    _track_check(res, tsim, report, log)

    live = report.live
    res.put("setup_s", clock.setup_s, "s")
    res.put("wall_s", wall, "s")
    # The drift epochs only: the cold first epoch's convergence varies
    # by ±20 % between seeds and would swamp the re-tracking it measures.
    res.put("rounds_to_bound",
            sum(e.retrack_rounds for e in report.epochs[1:]), "rounds")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.details.update(
        optimum_solve_s=sum(s for _, _, s in log.solves),
        sim_wall_s=live.wall_s,
        control_mb=live.gossip.payload_bytes / 1e6,
        request_latency_ms=live.request_mean_latency,
        epochs_run=len(report.epochs),
        requests=live.requests_submitted,
        events_processed=live.events_processed,
    )
    return res


def _track_fingerprint(tsim, report) -> tuple:
    live = report.live
    return _fingerprint(tsim.sim, live) + (
        live.requests_submitted, live.requests_completed,
    )


def _track_traced(res: Result, seeds: Seeds, seconds: int) -> Result:
    tsim = _track_build(seeds, seconds)
    report = tsim.run()
    expected, plain_s = _track_fingerprint(tsim, report), report.live.wall_s
    del tsim, report
    gc.collect()

    rec = SpanRecorder()
    profilers: list = []
    _install_core_spans(rec)
    log = _SolveLog()  # after the spans: it calls the traced solver
    log.install()
    try:
        tsim = _track_build(seeds, seconds)
        sim = tsim.sim
        _instrument_sim(rec, sim, profilers)
        sim.apply_demand = rec.wrap("tracking.driver.apply_demand", sim.apply_demand)
        t0 = perf_counter()
        report = tsim.run()
        wall_s = perf_counter() - t0
    finally:
        log.patches.restore()
        rec.restore()
    _replay(res, "track", expected, _track_fingerprint(tsim, report))
    _track_check(res, tsim, report, log)
    _layer_metrics(res, rec, [sim], [report.live], profilers, wall_s)
    _trace_totals(res, wall_s, report.live.wall_s, plain_s, retrack_rounds_max=max(
        e.retrack_rounds for e in report.epochs))
    res.spans = rec
    return res


# ----------------------------------------------------------------------
# small-fleets-m24
# ----------------------------------------------------------------------
class _ByzLog:
    """Captures the simulations and optima ``run_byz`` builds."""

    def __init__(self, on_sim=None):
        self.sims: list = []
        self.optima: list = []
        self.solve_s = 0.0
        self.on_sim = on_sim
        self.patches = Patches()

    def install(self) -> None:
        live_cls = byz_driver.LiveSimulation
        cached = byz_driver.cached_optimum

        def make_sim(*args, **kwargs):
            sim = live_cls(*args, **kwargs)
            if self.on_sim is not None:
                self.on_sim(sim)
            self.sims.append(sim)
            return sim

        def optimum(*args, **kwargs):
            t0 = perf_counter()
            out = cached(*args, **kwargs)
            self.solve_s += perf_counter() - t0
            self.optima.append(out[0])
            return out

        self.patches.replace(byz_driver, "LiveSimulation", make_sim)
        self.patches.replace(byz_driver, "cached_optimum", optimum)


def _small_build(seeds: Seeds):
    """The legacy-merge runs: every preset, then every trust-restricted
    preset (untrusted pairs are infinite-latency links),
    :data:`SMALL_SEEDS_PER_PRESET` instances each."""
    runs = []
    k_max = SMALL_SEEDS_PER_PRESET
    schedule = [(sc, SMALL_ROUNDS) for sc in PRESETS]
    schedule += [(sc, SMALL_TRUST_ROUNDS) for sc in TRUST_PRESETS]
    for sc, rounds in schedule:
        for k in range(k_max):
            s = k_max * seeds.inputs + k
            inst = sc.instance(m=SMALL_M, seed=s)
            sim = LiveSimulation(
                inst, config=get_live_preset("lossy"), seed=k_max * seeds.run + k
            )
            runs.append((f"{sc.name}/inputs{s}", inst, sim, rounds))
    return runs


class _SmallOp(NamedTuple):
    label: str
    sim: LiveSimulation
    report: object
    opt: object
    bound: float
    seconds: float
    solve_s: float


def _small_run(runs, seed: int, byz_log: _ByzLog) -> list[_SmallOp]:
    """One pass over the operations, each timed with its optimum solve;
    the optimum memo is emptied first, so the pass solves cold."""
    workloads_cache.clear_cache()
    out = []
    for label, inst, sim, rounds in runs:
        t0 = perf_counter()
        opt = solve_optimal(inst)
        t1 = perf_counter()
        sim.optimum_cost = opt.total_cost()
        sim.optimum_loads = opt.loads.copy()
        report = sim.run(rounds=rounds)
        out.append(_SmallOp(label, sim, report, opt, REL_TOL,
                            perf_counter() - t0, t1 - t0))
    byz_log.install()
    try:
        for p in BYZ_PRESETS:
            solved = byz_log.solve_s
            t0 = perf_counter()
            r = run_byz(p, f=p.f_max, robust=True, seed=seed)
            out.append(_SmallOp(f"{p.name}/f{p.f_max}", byz_log.sims[-1], r.report,
                                byz_log.optima[-1], p.error_bound,
                                perf_counter() - t0, byz_log.solve_s - solved))
    finally:
        byz_log.patches.restore()
    return out


def _small_check(res: Result, done: list[_SmallOp]) -> None:
    untrusted = 0  # allocations checked for load on untrusted links
    for op in done:
        checks = Checks()
        inst, label = op.sim.inst, op.label
        cert = certify(inst, op.opt.R)
        untrusted += check_allocation(checks, f"{label} optimum", inst, op.opt.R)
        final = check_cost(checks, label, inst, op.sim.state.R, op.report.final_cost)
        untrusted += check_allocation(checks, label, inst, op.sim.state.R)
        err = rel_error(final, cert["lower_bound"])
        checks.require(err <= op.bound, f"{label}: final error vs certified bound",
                       f"{err:.4%}")
        checks.require(np.isfinite(op.report.time_to_within(REL_TOL)),
                       f"{label}: ΣCi settles within the bound")
        res.op(checks)
    res.details["untrusted_link_checks"] = untrusted


def _fastest(passes, get) -> float:
    """Σ over operations of the fastest pass's figure."""
    return sum(min(get(op) for op in ops) for ops in zip(*passes))


def small(seeds: Seeds, seconds: int, clock: Clock, trace: bool) -> Result:
    """The seven scenario presets and the three trust-restricted ones at
    m = 24 under the legacy merge, then the six ``byzantine-*`` presets
    at f = f_max under the robust merge; :data:`SMALL_PASSES` passes."""
    res = Result()
    if trace:
        return _small_traced(res, seeds)
    builds = [_small_build(seeds) for _ in range(SMALL_PASSES)]
    clock.setup_done()
    passes = [_small_run(runs, seeds.inputs, _ByzLog()) for runs in builds]
    for done in passes:
        _small_check(res, done)
    fingerprints = [[_fingerprint(op.sim, op.report) for op in done] for done in passes]
    res.checks.require(
        all(f == fingerprints[0] for f in fingerprints),
        "small: every pass replays the first",
    )

    first = passes[0]
    res.put("setup_s", clock.setup_s, "s")
    res.put("wall_s", _fastest(passes, lambda op: op.seconds), "s")
    res.put("rounds_to_bound", sum(
        _rounds(op.sim, op.report.time_to_within(REL_TOL)) for op in first), "rounds")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.details.update(
        runs=len(first),
        passes_wall_s=[sum(op.seconds for op in done) for done in passes],
        optimum_solve_s=_fastest(passes, lambda op: op.solve_s),
        sim_wall_s=_fastest(passes, lambda op: op.report.wall_s),
        control_mb=sum(op.report.gossip.payload_bytes for op in first) / 1e6,
    )
    return res


def _small_traced(res: Result, seeds: Seeds) -> Result:
    plain_runs = _small_build(seeds)
    t0 = perf_counter()
    done = _small_run(plain_runs, seeds.inputs, _ByzLog())
    plain_s = perf_counter() - t0
    expected = [_fingerprint(op.sim, op.report) for op in done]
    del plain_runs, done
    gc.collect()

    rec = SpanRecorder()
    profilers: list = []
    _install_core_spans(rec)
    try:
        runs = _small_build(seeds)
        for run in runs:
            _instrument_sim(rec, run[2], profilers)
        byz_log = _ByzLog(on_sim=lambda sim: _instrument_sim(rec, sim, profilers))
        t0 = perf_counter()
        done = _small_run(runs, seeds.inputs, byz_log)
        traced_s = perf_counter() - t0
    finally:
        rec.restore()
    _replay(res, "small", expected, [_fingerprint(op.sim, op.report) for op in done])
    _small_check(res, done)
    _layer_metrics(res, rec, [op.sim for op in done], [op.report for op in done],
                   profilers, traced_s)
    _trace_totals(res, traced_s, traced_s, plain_s)
    res.spans = rec
    return res


# ----------------------------------------------------------------------
# paper-sweep-m200
# ----------------------------------------------------------------------
class _SweepLog:
    """Captures every optimum, MinE run and best-response equilibrium a
    ``ScenarioRunner`` sweep computes (they share the cell's instance),
    and times its stream simulations."""

    def __init__(self):
        self.optima: list[tuple] = []   # (instance, state, seconds)
        self.mine: list[tuple] = []     # (instance, final R, ΣCi per sweep)
        self.nash: list = []            # equilibrium states
        self.stream_s = 0.0
        self.patches = Patches()

    def install(self) -> None:
        solve = workloads_cache.solve_optimal
        best_response = engine_registry.best_response_dynamics
        stream = engine_registry.simulate_stream
        log = self

        def timed_solve(inst, **kwargs):
            t0 = perf_counter()
            state = solve(inst, **kwargs)
            log.optima.append((inst, state, perf_counter() - t0))
            return state

        class LoggedMinE(engine_registry.MinEOptimizer):
            # Keeps copies, not the optimizer: its static caches are the
            # program's memory, which must be freed with the cell.
            def run(self, **kwargs):
                out = super().run(**kwargs)
                log.mine.append((self.state.inst, self.state.R.copy(), list(out.costs)))
                return out

        def logged_best_response(inst, **kwargs):
            ne, br_trace = best_response(inst, **kwargs)
            log.nash.append(ne)
            return ne, br_trace

        def timed_stream(*args, **kwargs):
            t0 = perf_counter()
            out = stream(*args, **kwargs)
            log.stream_s += perf_counter() - t0
            return out

        self.patches.replace(workloads_cache, "solve_optimal", timed_solve)
        self.patches.replace(engine_registry, "MinEOptimizer", LoggedMinE)
        self.patches.replace(
            engine_registry, "best_response_dynamics", logged_best_response
        )
        self.patches.replace(engine_registry, "simulate_stream", timed_stream)


def _sweep_run(seed: int, log: _SweepLog):
    """One sweep, its optima solved cold (the memo is emptied first);
    returns the report and its wall-clock."""
    runner = ScenarioRunner(
        [sc.name for sc in PRESETS], sizes=[SWEEP_M], seeds=[seed]
    )
    workloads_cache.clear_cache()
    log.install()
    try:
        t0 = perf_counter()
        report = runner.run(backend="serial")
        return report, perf_counter() - t0
    finally:
        log.patches.restore()


def _sweep_check(res: Result, report, log: _SweepLog) -> float:
    """Checks every cell; returns MinE's sweeps to the 2 % bound, summed
    over the cells."""
    def by_inst(items, inst_of):
        return {id(inst_of(x)): x for x in items}

    mines = by_inst(log.mine, lambda x: x[0])
    nash = by_inst(log.nash, lambda x: x.inst)
    res.details["cells"] = []
    rounds_to_bound = 0
    for row, (inst, opt, _s) in zip(report, log.optima):
        checks = Checks()
        label = row.scenario
        cert = certify(inst, opt.R)
        check_allocation(checks, f"{label} optimum", inst, opt.R)
        check_cost(checks, f"{label} optimum", inst, opt.R, row.optimal_cost)
        _, mine_R, mine_costs = mines[id(inst)]
        check_allocation(checks, f"{label} MinE", inst, mine_R)
        f_mine = check_cost(checks, f"{label} MinE", inst, mine_R, mine_costs[-1])
        # MinE only lowers ΣCi, so its first sweep within the bound is
        # the one after which it stays within.
        within = [k for k, c in enumerate(mine_costs)
                  if c <= (1.0 + REL_TOL) * cert["cost"]]
        checks.require(within, f"{label}: MinE reaches the bound")
        rounds_to_bound += within[0] if within else len(mine_costs)
        checks.require(row.mine_converged, f"{label}: MinE converged")
        checks.require(
            f_mine <= (1.0 + MINE_REL_TOL) * cert["cost"] * (1 + 1e-12),
            f"{label}: MinE within its stop tolerance",
            f"{f_mine / cert['cost'] - 1:.4%}",
        )
        mine_err = rel_error(f_mine, cert["lower_bound"])
        checks.require(mine_err <= REL_TOL, f"{label}: MinE vs certified bound",
                       f"{mine_err:.4%}")
        ne = nash[id(inst)]
        check_allocation(checks, f"{label} equilibrium", inst, ne.R)
        f_ne = check_cost(checks, f"{label} equilibrium", inst, ne.R,
                          row.poa_ratio * row.optimal_cost)
        checks.require(row.poa_ratio >= 1.0, f"{label}: PoA >= 1", f"{row.poa_ratio!r}")
        checks.require(f_ne >= cert["lower_bound"], f"{label}: NE above the certified bound")
        checks.require(
            row.stream_completed > 0 and row.stream_mean_latency > 0,
            f"{label}: stream requests complete",
        )
        res.op(checks)
        res.details["cells"].append(
            {"scenario": label, "optimum_rel_gap": cert["rel_gap"],
             "mine_error_vs_certified": mine_err, "poa": row.poa_ratio,
             "mine_sweeps_to_bound": within[0] if within else None}
        )
    res.checks.require(
        len(log.optima) == len(report) == len(mines) == len(nash),
        "one optimum, MinE run and equilibrium per cell",
    )
    return rounds_to_bound


def _sweep_fingerprint(report, log: _SweepLog):
    rows = [
        tuple(v for k, v in r.as_dict().items() if not k.endswith("_s"))
        for r in report
    ]
    digests = [
        hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in [o[1].R for o in log.optima]
        + [m[1] for m in log.mine] + [n.R for n in log.nash]
    ]
    return rows, digests


def sweep(seeds: Seeds, seconds: int, clock: Clock, trace: bool) -> Result:
    """``ScenarioRunner`` over the seven presets at m = 200, serial
    backend: optimum, MinE, best-response PoA and stream simulation per
    cell."""
    res = Result()
    if trace:
        return _sweep_traced(res, seeds.inputs)
    clock.setup_done()
    log = _SweepLog()
    report, _ = _sweep_run(seeds.inputs, log)
    wall = clock.wall_s()
    rounds_to_bound = _sweep_check(res, report, log)

    res.put("setup_s", clock.setup_s, "s")
    res.put("wall_s", wall, "s")
    res.put("rounds_to_bound", rounds_to_bound, "rounds")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    # The sweep follows the input seed only, so its simulated latency
    # reads the same in every run: a detail, not a gated metric.
    done = sum(r.stream_completed for r in report)
    res.details["stream_latency_ms"] = sum(
        r.stream_mean_latency * r.stream_completed for r in report) / done
    res.details["optimum_solve_s"] = sum(s for _, _, s in log.optima)
    res.details["sim_wall_s"] = log.stream_s
    return res


def _sweep_traced(res: Result, seed: int) -> Result:
    log = _SweepLog()
    report, plain_s = _sweep_run(seed, log)
    expected = _sweep_fingerprint(report, log)
    del report, log
    gc.collect()

    rec = SpanRecorder()
    environment = sim_runner.Environment
    envs, profilers = [], []

    def traced_environment(*args, **kwargs):
        env = environment(*args, **kwargs)
        prof = rec.profiler(env)
        env.set_profiler(prof)
        env.run = rec.wrap("sim.events.run", env.run)
        envs.append(env)
        profilers.append(prof)
        return env

    log = _SweepLog()
    _install_core_spans(rec)
    rec.patches.replace(sim_runner, "Environment", traced_environment)
    try:
        report, traced_s = _sweep_run(seed, log)
    finally:
        rec.restore()
    _replay(res, "sweep", expected, _sweep_fingerprint(report, log))
    _sweep_check(res, report, log)
    _layer_metrics(res, rec, [], [], profilers, traced_s, envs)
    _trace_totals(res, traced_s, traced_s, plain_s, sweep_overhead_s=(
        traced_s - res.details["spans"]["engine.cell"]["total_s"]))
    res.spans = rec
    return res


WORKLOADS = {
    "converge-m2000": converge,
    "track-drift-m500": track,
    "small-fleets-m24": small,
    "paper-sweep-m200": sweep,
}
