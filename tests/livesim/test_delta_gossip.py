"""Delta gossip: bit-identical merge results, strictly smaller payloads.

Delta mode is a wire-format optimization: a payload ships only entries
the receiver may lack, but every entry *strictly newer* at the receiver
is always included, so merges produce exactly the tables a full-table
exchange would.  These tests replay full-vs-delta on every registered
preset at m = 12, on a larger m = 72 fleet under churn, and across
mid-run demand shifts, asserting identical event
traces, allocations, merged load views and update counts — and that the
delta wire format ships strictly fewer modelled payload bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.livesim import LiveSimulation, get_live_preset
from repro.workloads import PRESETS, cached_instance, get_scenario


def _pair(inst, cfg, seed, rounds):
    sim_f = LiveSimulation(inst, config=cfg, seed=seed)
    rep_f = sim_f.run(rounds=rounds)
    sim_d = LiveSimulation(
        inst, config=dataclasses.replace(cfg, gossip_mode="delta"), seed=seed
    )
    rep_d = sim_d.run(rounds=rounds)
    return sim_f, rep_f, sim_d, rep_d


def _assert_identical(sim_f, rep_f, sim_d, rep_d, label=""):
    assert rep_f.trace == rep_d.trace, f"{label}: event traces diverged"
    assert rep_f.trace, f"{label}: trace should not be empty"
    np.testing.assert_array_equal(sim_f.state.R, sim_d.state.R)
    np.testing.assert_array_equal(rep_f.costs, rep_d.costs)
    np.testing.assert_array_equal(sim_f.gossip.values, sim_d.gossip.values)
    assert sim_f.gossip.update_counts == sim_d.gossip.update_counts
    assert rep_f.agents == rep_d.agents
    assert rep_f.net == rep_d.net  # same sends, drops, deliveries
    assert rep_f.failures == rep_d.failures


class TestMergeIdentity:
    def test_all_presets_identical_lossy(self):
        """All 7 scenario presets at m = 12, 10% message loss (lost
        acks force conservative superset payloads)."""
        cfg = get_live_preset("lossy")
        for sc in PRESETS:
            inst = cached_instance(sc, 12, 0)
            sim_f, rep_f, sim_d, rep_d = _pair(inst, cfg, seed=5, rounds=50)
            _assert_identical(sim_f, rep_f, sim_d, rep_d, sc.name)
            assert (
                rep_d.gossip.payload_bytes < rep_f.gossip.payload_bytes
            ), f"{sc.name}: delta shipped no fewer bytes"

    def test_packed_path_identical_with_churn(self):
        """A larger fleet (m = 72) under churn, which adds failures,
        dead letters and rejoin republishes."""
        inst = cached_instance(get_scenario("regional-surge"), 72, 0)
        cfg = get_live_preset("churn")
        sim_f, rep_f, sim_d, rep_d = _pair(inst, cfg, seed=3, rounds=60)
        _assert_identical(sim_f, rep_f, sim_d, rep_d, "m=72 churn")
        assert len(rep_f.failures) > 0
        assert rep_d.gossip.payload_bytes < rep_f.gossip.payload_bytes

    def test_demand_shift_identical(self):
        """apply_demand republishes everything; delta must ship the whole
        changed table once and then quiesce, staying bit-identical."""
        inst = cached_instance(get_scenario("regional-surge"), 72, 0)
        cfg = get_live_preset("lossy")
        sim_f, _, sim_d, _ = _pair(inst, cfg, seed=1, rounds=30)
        shift = inst.loads * np.random.default_rng(9).uniform(0.5, 2.0, inst.m)
        sim_f.apply_demand(shift)
        sim_d.apply_demand(shift)
        rep_f = sim_f.run(rounds=25)
        rep_d = sim_d.run(rounds=25)
        _assert_identical(sim_f, rep_f, sim_d, rep_d, "demand shift")


class TestPayloadEconomy:
    def test_converged_fleet_ships_near_nothing(self):
        """After convergence the tables stop changing: delta payloads
        collapse to headers while full mode keeps shipping m entries."""
        inst = cached_instance(get_scenario("paper-planetlab"), 16, 0)
        cfg = get_live_preset("ideal")
        sim = LiveSimulation(
            inst, config=dataclasses.replace(cfg, gossip_mode="delta"), seed=0
        )
        sim.run(rounds=80)  # converge
        before = dataclasses.replace(sim.gossip.stats)
        sim.run(rounds=20)
        entries = sim.gossip.stats.payload_entries - before.payload_entries
        packets = (
            sim.gossip.stats.pushes + sim.gossip.stats.pull_replies
            - before.pushes - before.pull_replies
        )
        # Far below the m-entries-per-packet of full mode.
        assert entries < 0.05 * packets * inst.m

    def test_payload_counters_track_full_mode_exactly(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        sim = LiveSimulation(inst, config=get_live_preset("ideal"), seed=0)
        rep = sim.run(rounds=10)
        packets = rep.gossip.pushes + rep.gossip.pull_replies
        assert rep.gossip.payload_entries == packets * inst.m
