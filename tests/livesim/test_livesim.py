"""Tier-1 livesim suite: convergence, churn re-convergence, protocol
invariants and the evaluator/sweep integration.

The heavyweight 7-preset acceptance grid lives in
``benchmarks/test_livesim.py``; this file keeps sizes small so the
subsystem is exercised quickly on every PR.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AllocationState, get_evaluator
from repro.livesim import (
    LIVE_PRESETS,
    LiveCell,
    LiveConfig,
    LiveSimulation,
    evaluate_live_cell,
    get_live_preset,
    live_sweep,
)
from repro.workloads import cached_instance, cached_optimum, get_scenario

REL_TOL = 0.02  # the paper's Table I convergence bound (2 %)


@pytest.fixture(scope="module")
def small_cell():
    sc = get_scenario("paper-planetlab")
    inst = cached_instance(sc, 12, 0)
    opt_state, opt_cost, _, _ = cached_optimum(sc, 12, 0)
    return inst, opt_state, opt_cost


# ----------------------------------------------------------------------
# Convergence of the async control plane
# ----------------------------------------------------------------------
def test_ideal_plane_converges_within_paper_bound(small_cell):
    inst, opt_state, opt_cost = small_cell
    sim = LiveSimulation(inst, config=get_live_preset("ideal"), seed=0,
                         optimum=opt_state)
    report = sim.run(rounds=50)
    assert report.final_error <= REL_TOL
    assert report.agents.exchanges > 0
    # The trajectory is monotone non-increasing without churn: exchanges
    # are exact Algorithm 1 transfers on true state.
    assert np.all(np.diff(report.costs) <= 1e-9)
    t = report.time_to_within(REL_TOL)
    assert np.isfinite(t) and t <= report.horizon


def test_lossy_plane_still_converges(small_cell):
    inst, opt_state, _ = small_cell
    sim = LiveSimulation(inst, config=get_live_preset("lossy"), seed=1,
                         optimum=opt_state)
    report = sim.run(rounds=80)
    assert report.net.dropped > 0  # the losses actually happened
    assert report.final_error <= REL_TOL


def test_views_are_genuinely_stale(small_cell):
    """Async views lag by in-flight time: the mean view age is positive
    and of the order of the gossip interval."""
    inst, opt_state, _ = small_cell
    sim = LiveSimulation(inst, config=get_live_preset("ideal"), seed=2,
                         optimum=opt_state)
    report = sim.run(rounds=30)
    assert report.mean_view_age > 0
    assert report.mean_view_age < 20 * sim.config.gossip_interval


def test_per_server_error_reported(small_cell):
    inst, opt_state, _ = small_cell
    sim = LiveSimulation(inst, config=get_live_preset("ideal"), seed=0,
                         optimum=opt_state)
    report = sim.run(rounds=50)
    assert report.per_server_error is not None
    assert report.per_server_error.shape == (inst.m,)
    # Near-optimal cost implies near-optimal loads on this instance.
    assert report.per_server_error.max() <= 0.15 * inst.total_load


def test_request_traffic_routed_by_live_allocation(small_cell):
    inst, opt_state, _ = small_cell
    cfg = LiveConfig(arrival_rate_scale=0.002)
    sim = LiveSimulation(inst, config=cfg, seed=0, optimum=opt_state)
    report = sim.run(rounds=30)
    assert report.requests_submitted > 0
    assert report.requests_completed > 0
    assert np.isfinite(report.request_mean_latency)
    assert report.final_error <= REL_TOL  # traffic does not disturb control


# ----------------------------------------------------------------------
# Churn: failures perturb, the plane re-converges
# ----------------------------------------------------------------------
def test_churn_reconverges_after_each_failure(small_cell):
    inst, opt_state, _ = small_cell
    sim = LiveSimulation(inst, config=get_live_preset("churn"), seed=3,
                         optimum=opt_state)
    report = sim.run(rounds=150)
    # The preset produces real churn: >=5 % of servers restarted.
    assert len(report.failures) >= max(1, int(0.05 * inst.m))
    assert len(report.rejoins) >= 1
    # Every failure displaces load and spikes the cost...
    errs = report.relative_errors()
    assert errs.max() > REL_TOL
    # ...and the plane re-converges within the bound after each failure.
    for t in report.reconvergence_times(REL_TOL):
        assert np.isfinite(t)
    assert report.final_error <= REL_TOL


def test_failure_displaces_load_to_owners(small_cell):
    inst, _, _ = small_cell
    from repro.livesim import fail_server

    state = AllocationState.initial(inst)
    # Move some of org 0's load to server 1 so the failure has something
    # to displace.
    moved = state.R[0, 0] / 2
    state.R[0, 0] -= moved
    state.R[0, 1] += moved
    state.refresh_loads()
    displaced = fail_server(state, 1)
    assert displaced == pytest.approx(moved)
    state.check_invariants()
    assert state.loads[1] == pytest.approx(inst.loads[1])  # own load stays


# ----------------------------------------------------------------------
# Protocol invariants
# ----------------------------------------------------------------------
def test_allocation_invariants_hold_throughout(small_cell):
    inst, opt_state, _ = small_cell
    sim = LiveSimulation(inst, config=get_live_preset("churn"), seed=5,
                         optimum=opt_state)
    for _ in range(6):
        sim.run(rounds=15)
        sim.state.check_invariants()


def test_handshake_accounting_balances(small_cell):
    inst, opt_state, _ = small_cell
    sim = LiveSimulation(inst, config=get_live_preset("lossy"), seed=7,
                         optimum=opt_state)
    report = sim.run(rounds=60)
    a = report.agents
    # Every proposal resolves exactly one way at the proposer: accept
    # seen, reject seen, or timeout; accepted ones split into applied /
    # noop / aborted exchanges at most once each.
    assert a.proposals > 0
    assert a.exchanges + a.noop_exchanges + a.aborted <= a.accepts
    assert a.propose_timeouts <= a.proposals
    # Nothing ends the run still locked forever: all busy slots clear
    # once in-flight timeouts pass.
    sim.run(rounds=5)
    assert all(
        slot is None or slot[2] > 0 for slot in sim.agents.busy
    )


def test_unreachable_peers_never_gossiped(small_cell):
    """Forbidden (infinite-latency) links carry no control messages."""
    inst, _, _ = small_cell
    latency = inst.latency.copy()
    latency[0, 1] = latency[1, 0] = np.inf
    from repro import Instance

    inst2 = Instance(inst.speeds, inst.loads, latency)
    sim = LiveSimulation(inst2, config=get_live_preset("ideal"), seed=0)
    assert 1 not in sim.gossip.peers[0]
    assert 0 not in sim.gossip.peers[1]
    sim.run(rounds=20)
    assert sim.state.total_cost() > 0  # ran fine


# ----------------------------------------------------------------------
# Evaluator + sweep integration
# ----------------------------------------------------------------------
def test_livesim_evaluator_registered(small_cell):
    inst, opt_state, opt_cost = small_cell
    row = get_evaluator("livesim")(inst, opt_state, rng=0, rounds=50)
    assert row["converged"]
    assert row["final_error"] <= REL_TOL
    assert row["events_per_sec"] > 0
    assert row["exchanges"] > 0


def test_live_sweep_sync_vs_async():
    rows = live_sweep(
        ["paper-homogeneous"], sizes=[10], seeds=[0], rounds=50
    )
    assert len(rows) == 2  # one sync + one async cell
    by_mode = {r["mode"]: r for r in rows}
    assert by_mode["sync"]["converged"]
    assert by_mode["async"]["converged"]
    assert by_mode["async"]["events_per_sec"] > 0
    # Same offline optimum anchors both modes (shared memo cache).
    assert by_mode["sync"]["optimal_cost"] == by_mode["async"]["optimal_cost"]


@pytest.mark.parametrize(
    "scenarios, sizes, seeds, axis",
    [([], [8], [0], "scenarios"),
     (["paper-homogeneous"], [], [0], "sizes"),
     (["paper-homogeneous"], [8], [], "seeds")],
)
def test_live_sweep_rejects_empty_axis(scenarios, sizes, seeds, axis):
    with pytest.raises(ValueError, match=f"{axis} is empty"):
        live_sweep(scenarios, sizes=sizes, seeds=seeds)


def test_live_sweep_rejects_empty_modes():
    with pytest.raises(ValueError, match="modes is empty"):
        live_sweep(["paper-homogeneous"], sizes=[8], modes=())


def test_config_rejects_zero_screen_width():
    """Width 0 would screen in every server (``argpartition``'s
    ``[-0:]`` is the whole array), so it fails at construction."""
    with pytest.raises(ValueError, match="agent_screen_width"):
        LiveConfig(agent_screen_width=0)
    assert LiveConfig(agent_screen_width=1).agent_screen_width == 1


def test_config_rejects_negative_arrival_rate():
    """A negative rate would silently run with no traffic at all."""
    with pytest.raises(ValueError, match="arrival_rate_scale"):
        LiveConfig(arrival_rate_scale=-0.01)
    assert LiveConfig(arrival_rate_scale=0.0).arrival_rate_scale == 0.0


def test_live_cell_validates_mode_and_preset():
    sc = get_scenario("paper-homogeneous")
    with pytest.raises(ValueError):
        LiveCell(scenario=sc, m=8, seed=0, mode="warp")
    with pytest.raises(KeyError):
        LiveCell(scenario=sc, m=8, seed=0, preset="nope")
    cell = LiveCell(scenario=sc, m=8, seed=0, rounds=30)
    row = evaluate_live_cell(cell)
    assert row["mode"] == "async"


def test_live_presets_cover_the_axes():
    assert set(LIVE_PRESETS) >= {"ideal", "lossy", "churn"}
    assert LIVE_PRESETS["churn"].churn_rate > 0
    assert LIVE_PRESETS["lossy"].p_drop > 0
    ideal = LIVE_PRESETS["ideal"]
    assert ideal.p_drop == 0 and ideal.churn_rate == 0


def test_optimum_as_float(small_cell):
    inst, _, opt_cost = small_cell
    sim = LiveSimulation(inst, seed=0, optimum=opt_cost)
    report = sim.run(rounds=40)
    assert report.optimum_cost == opt_cost
    assert report.per_server_error is None  # loads unknown from a float


def test_config_resolves_to_latency_scale():
    inst = get_scenario("datacenter-fattree").instance(12, seed=0)
    cfg = LiveConfig().resolve(inst)
    lat = inst.latency[np.isfinite(inst.latency) & (inst.latency > 0)]
    assert cfg.gossip_interval == pytest.approx(3 * max(float(np.median(lat)), 1e-3))
    assert cfg.agent_interval > cfg.gossip_interval
    assert cfg.accept_timeout > cfg.propose_timeout > 0
