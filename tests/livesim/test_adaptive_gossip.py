"""Gossip runs at one fixed, jittered interval.

Adaptive gossip frequency — a per-server merge-delta EMA that stretched
a converged server's gossip interval and shrank a churning one's — was
removed: on the fleets it was built for it processed more events, took
longer and held more memory than the fixed interval.  These tests keep
their names and check the fixed-interval cycle that replaced it:

* every server re-arms its gossip tick within [0.5, 1.5) of
  ``gossip_interval`` on every preset, converged or not, so a fleet
  gossips at one rate for the whole run;
* runs stay pure functions of (instance, config, seed) — identical
  event traces, allocations and trace JSONL across same-seed runs;
* a demand shift republishes every live server's own entry at once.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np

from repro import obs
from repro.livesim import AsyncGossip, LiveConfig, LiveSimulation, get_live_preset
from repro.workloads import PRESETS, cached_instance, get_scenario

#: Relative float slack on the jitter window: tick times are sums of
#: delays, so a recorded gap can differ from its delay by a few ulps.
_EPS = 1e-9


def _run(inst, cfg, seed, rounds=40):
    sim = LiveSimulation(inst, config=cfg, seed=seed)
    rep = sim.run(rounds=rounds)
    return sim, rep


def _record_ticks(sim) -> dict[int, list[float]]:
    """Record ``sim``'s gossip tick times per server: ``_arm`` schedules
    ``self._tick``, so an instance attribute catches every tick after
    each server's already scheduled next one."""
    ticks: dict[int, list[float]] = {}
    tick = sim.gossip._tick

    def recording_tick(i):
        ticks.setdefault(i, []).append(sim.env.now)
        tick(i)

    sim.gossip._tick = recording_tick
    return ticks


def _assert_fixed_window(sim, ticks, label=""):
    """Every gap between a server's consecutive ticks lies in the fixed
    jitter window [0.5, 1.5) × ``gossip_interval``."""
    interval = sim.config.gossip_interval
    assert len(ticks) == sim.inst.m, f"{label}: a server stopped gossiping"
    for i, times in ticks.items():
        gaps = np.diff(times)
        assert gaps.size > 0, f"{label}: server {i} ticked once"
        assert gaps.min() >= 0.5 * interval * (1 - _EPS), (label, i, gaps.min())
        assert gaps.max() < 1.5 * interval * (1 + _EPS), (label, i, gaps.max())


def _assert_same_run(sim_a, rep_a, sim_b, rep_b, label=""):
    assert rep_a.trace == rep_b.trace, f"{label}: traces diverged"
    assert rep_a.trace, f"{label}: trace should not be empty"
    assert rep_a.events_processed == rep_b.events_processed, (
        f"{label}: event counts diverged"
    )
    np.testing.assert_array_equal(sim_a.state.R, sim_b.state.R)
    np.testing.assert_array_equal(rep_a.costs, rep_b.costs)
    assert rep_a.net.sent == rep_b.net.sent
    assert rep_a.agents == rep_b.agents
    assert rep_a.gossip == rep_b.gossip


class TestOffIsLegacy:
    def test_neutral_adaptive_equals_off_on_all_presets(self):
        """On every scenario preset each server's gossip ticks stay in
        the fixed jitter window for the whole run."""
        cfg = get_live_preset("lossy")
        for sc in PRESETS:
            inst = cached_instance(sc, 12, 0)
            sim = LiveSimulation(inst, config=cfg, seed=5)
            ticks = _record_ticks(sim)
            sim.run(rounds=40)
            _assert_fixed_window(sim, ticks, sc.name)

    def test_off_run_never_touches_scales(self):
        """The interval is the resolved config's, before and after a
        run, and no frequency knob is left on the config or the layer."""
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        sim = LiveSimulation(inst, config=get_live_preset("ideal"), seed=3)
        assert sim.gossip.interval == sim.config.gossip_interval
        sim.run(rounds=40)
        assert sim.gossip.interval == sim.config.gossip_interval
        knobs = [f.name for f in dataclasses.fields(LiveConfig)]
        knobs += list(inspect.signature(AsyncGossip).parameters)
        assert not [k for k in knobs if "adapt" in k]


class TestAdaptiveDeterminism:
    def test_same_seed_identical_on_all_presets(self):
        cfg = get_live_preset("lossy")
        for sc in PRESETS:
            inst = cached_instance(sc, 12, 0)
            sim_a, rep_a = _run(inst, cfg, seed=11)
            sim_b, rep_b = _run(inst, cfg, seed=11)
            _assert_same_run(sim_a, rep_a, sim_b, rep_b, sc.name)

    def test_trace_jsonl_byte_identical(self):
        """Byte-identical trace JSONL on the churning preset, whose
        trace carries failures and rejoins too."""
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        cfg = get_live_preset("churn")

        def trace_bytes(seed):
            o = obs.Observability(trace=True)
            sim = LiveSimulation(inst, config=cfg, seed=seed, obs=o)
            sim.run(rounds=40)
            return o.tracer.to_jsonl()

        text_a = trace_bytes(7)
        text_b = trace_bytes(7)
        assert text_a == text_b
        assert text_a.count("\n") > 10
        assert trace_bytes(8) != text_a

    def test_adaptive_with_churn_identical(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 16, 0)
        cfg = get_live_preset("churn")
        sim_a, rep_a = _run(inst, cfg, seed=2, rounds=60)
        sim_b, rep_b = _run(inst, cfg, seed=2, rounds=60)
        _assert_same_run(sim_a, rep_a, sim_b, rep_b, "churn")
        assert rep_a.failures == rep_b.failures

    def test_split_run_matches_long_run(self):
        """A split churning run replays one long run: down servers keep
        their gossip cycle armed across the run boundary."""
        inst = cached_instance(get_scenario("paper-homogeneous"), 10, 0)
        cfg = get_live_preset("churn")
        sim_long = LiveSimulation(inst, config=cfg, seed=4)
        rep_long = sim_long.run(rounds=60)
        sim_split = LiveSimulation(inst, config=cfg, seed=4)
        sim_split.run(rounds=30)
        rep_split = sim_split.run(rounds=30)
        assert rep_long.trace == rep_split.trace
        assert rep_long.gossip == rep_split.gossip
        np.testing.assert_array_equal(sim_long.state.R, sim_split.state.R)


class TestAdaptationBehavior:
    def test_converged_fleet_stretches_interval(self):
        """A converged fleet keeps gossiping at the base rate: the second
        half of a run pushes as often as the first, about once per server
        per gossip interval."""
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        sim = LiveSimulation(inst, config=get_live_preset("ideal"), seed=0)
        first = sim.run(rounds=60).gossip.pushes
        ticks = _record_ticks(sim)
        total = sim.run(rounds=60).gossip.pushes
        _assert_fixed_window(sim, ticks, "converged")
        expected = inst.m * 60 * sim.config.agent_interval / sim.config.gossip_interval
        assert abs(first - expected) <= 0.05 * expected
        assert abs((total - first) - expected) <= 0.05 * expected

    def test_still_converges(self):
        """The fixed-interval plane converges to the 2 % bound."""
        from repro.workloads.cache import cached_optimum

        sc = get_scenario("paper-planetlab")
        inst = cached_instance(sc, 12, 0)
        _, opt_cost, _, _ = cached_optimum(sc, 12, 0)
        sim, rep = _run(inst, get_live_preset("ideal"), seed=1, rounds=120)
        err = (sim.state.total_cost() - opt_cost) / opt_cost
        assert err <= 0.02

    def test_interval_gauge_exposed(self):
        """The metrics snapshot reads the gossip counters live; with one
        fixed interval there is no ``gossip.interval`` gauge."""
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        o = obs.Observability()
        sim = LiveSimulation(inst, config=get_live_preset("ideal"), seed=0, obs=o)
        sim.run(rounds=30)
        metrics = o.metrics.snapshot()["metrics"]
        assert "gossip.interval" not in metrics
        assert metrics["gossip.pushes"] == sim.gossip.stats.pushes > 0
        assert metrics["gossip.merges"] == sim.gossip.stats.merges > 0

    def test_demand_refresh_resets_adaptation(self):
        """A demand shift republishes every live server's own entry with
        its new true load, and the cycle keeps its fixed window."""
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        sim, _ = _run(inst, get_live_preset("ideal"), seed=0, rounds=60)
        versions = np.diag(sim.gossip.versions).copy()
        publishes = sim.gossip.stats.publishes
        rng = np.random.default_rng(0)
        sim.apply_demand(inst.loads * rng.uniform(0.5, 2.0, size=inst.m))
        assert sim.gossip.stats.publishes == publishes + inst.m
        np.testing.assert_array_equal(np.diag(sim.gossip.versions), versions + 1)
        np.testing.assert_array_equal(np.diag(sim.gossip.values), sim.state.loads)
        ticks = _record_ticks(sim)
        sim.run(rounds=20)
        _assert_fixed_window(sim, ticks, "after demand shift")
