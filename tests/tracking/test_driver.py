"""TrackingSimulation determinism and metric semantics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.livesim import get_live_preset
from repro.tracking import TrackingSimulation, tracking_sweep
from repro.workloads import cached_instance, get_scenario


def _make(seed=0, trace="drift", preset="ideal", m=12, **kw):
    inst = cached_instance(get_scenario("paper-planetlab"), m, 0)
    return TrackingSimulation(
        inst, trace, config=get_live_preset(preset), seed=seed, **kw
    )


class TestDeterminism:
    def test_same_seed_identical_runs(self):
        rep_a = _make(seed=7).run()
        rep_b = _make(seed=7).run()
        assert len(rep_a.epochs) == len(rep_b.epochs)
        np.testing.assert_array_equal(rep_a.epoch_optima, rep_b.epoch_optima)
        for ea, eb in zip(rep_a.epochs, rep_b.epochs):
            assert ea == eb
        ta, ra = rep_a.regret_series()
        tb, rb = rep_b.regret_series()
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(ra, rb)
        assert rep_a.live.trace == rep_b.live.trace

    def test_different_seeds_differ(self):
        rep_a = _make(seed=0).run()
        rep_b = _make(seed=1).run()
        assert rep_a.live.trace != rep_b.live.trace

    def test_split_run_equals_long_run(self):
        sim_long = _make(seed=4, preset="lossy")
        rep_long = sim_long.run()
        sim_split = _make(seed=4, preset="lossy")
        first = sim_split.run(epochs=2)
        assert len(first.epochs) == 2
        rep_split = sim_split.run()
        assert len(rep_split.epochs) == len(rep_long.epochs)
        for ea, eb in zip(rep_long.epochs, rep_split.epochs):
            assert ea == eb
        assert rep_long.live.trace == rep_split.live.trace
        np.testing.assert_array_equal(
            sim_long.sim.state.R, sim_split.sim.state.R
        )

    def test_delta_gossip_tracking_identical_to_full(self):
        cfg = get_live_preset("lossy")
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        sim_f = TrackingSimulation(inst, "regime", config=cfg, seed=3)
        rep_f = sim_f.run()
        sim_d = TrackingSimulation(
            inst, "regime",
            config=dataclasses.replace(cfg, gossip_mode="delta"), seed=3,
        )
        rep_d = sim_d.run()
        assert rep_f.live.trace == rep_d.live.trace
        for ea, eb in zip(rep_f.epochs, rep_d.epochs):
            assert ea == eb
        np.testing.assert_array_equal(sim_f.sim.state.R, sim_d.sim.state.R)
        np.testing.assert_array_equal(
            sim_f.sim.gossip.values, sim_d.sim.gossip.values
        )
        assert (
            rep_d.live.gossip.payload_bytes < rep_f.live.gossip.payload_bytes
        )


class TestMetrics:
    def test_epochs_retrack_and_regret_integrates(self):
        rep = _make(seed=0).run()
        assert rep.all_retracked()
        assert rep.mean_final_error <= rep.rel_tol
        assert rep.cumulative_excess_cost > 0
        for e in rep.epochs:
            assert e.duration_rounds > 0
            assert np.isfinite(e.excess_cost)
            assert e.exchanges >= 0
        # Regret series: defined from epoch 0 on, piecewise vs C*_k.
        times, regret = rep.regret_series()
        assert np.isfinite(regret).all()
        assert regret[-1] <= rep.rel_tol + 1e-12

    def test_shift_perturbs_then_retracks(self):
        rep = _make(seed=0, trace="regime").run()
        # At least one regime switch knocked the plane out of the bound...
        assert any(e.start_error > rep.rel_tol for e in rep.epochs[1:])
        # ...and every epoch re-entered it.
        assert rep.all_retracked()

    def test_compute_optimum_off_gives_nan_metrics(self):
        rep = _make(seed=0, compute_optimum=False).run()
        assert not np.isfinite(rep.mean_final_error)
        assert len(rep.epochs) == 8  # the run itself still happens

    def test_precomputed_epoch_list_accepted(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 10, 0)
        rng = np.random.default_rng(0)
        epochs = [
            (0.0, rng.uniform(10, 100, 10)),
            (15.0, rng.uniform(10, 100, 10)),
        ]
        rep = TrackingSimulation(
            inst, epochs, config=get_live_preset("ideal"), seed=0
        ).run()
        assert len(rep.epochs) == 2
        assert rep.epochs[1].t_start_rounds == 15.0

    def test_traffic_rates_follow_demand(self):
        cfg = dataclasses.replace(
            get_live_preset("ideal"), arrival_rate_scale=0.02
        )
        inst = cached_instance(get_scenario("paper-planetlab"), 10, 0)
        sim = TrackingSimulation(inst, "drift", config=cfg, seed=1)
        rep = sim.run()
        assert rep.live.requests_submitted > 0
        np.testing.assert_allclose(
            sim.sim._traffic_rates,
            sim.sim.inst.loads * cfg.arrival_rate_scale,
        )

    def test_rate_toggle_never_doubles_arrival_loop(self):
        """An org whose demand bounces 0 -> + while its old arrival
        callback is still pending must not end up with two loops."""
        from repro.livesim import LiveSimulation

        cfg = dataclasses.replace(
            get_live_preset("ideal"), arrival_rate_scale=0.05
        )
        inst = cached_instance(get_scenario("paper-planetlab"), 8, 0)
        sim = LiveSimulation(inst, config=cfg, seed=0)
        sim.run(rounds=5)
        zeroed = np.array(inst.loads)
        zeroed[3] = 0.0
        sim.apply_demand(zeroed)          # rate 0: pending callback remains
        assert sim._traffic_armed[3]
        sim.apply_demand(inst.loads)      # rate back up before it fired
        assert sim._traffic_armed[3]      # still exactly one armed loop
        report = sim.run(rounds=60)
        # With a doubled loop org 3's arrivals would be ~2x its peers'
        # per unit load; assert its share stays in line.
        per_org = np.bincount(
            [r.owner for r in sim._requests], minlength=8
        ).astype(float)
        share = per_org / per_org.sum()
        expected = inst.loads / inst.loads.sum()
        assert share[3] < 1.5 * expected[3]
        assert report.requests_submitted > 0


class TestTrackingSweep:
    def test_grid_rows_and_store_resume(self, tmp_path):
        store = tmp_path / "track.jsonl"
        kw = dict(
            traces=["drift"], sizes=[10], seeds=[0],
            solvers=("mine-warm", "mine-cold"), max_sweeps=30,
        )
        rows = tracking_sweep(["paper-planetlab"], store=store, **kw)
        assert [r["solver"] for r in rows] == ["mine-warm", "mine-cold"]
        assert all(r["all_retracked"] for r in rows)
        again = tracking_sweep(["paper-planetlab"], store=store, **kw)
        assert again == rows  # all served from the store

    def test_warm_tracks_diurnal_and_flash_crowds(self):
        """Lock-step tracking: a warm-started MinE session keeps every
        epoch of a day's diurnal waves and of a flash-crowd incident
        within the 2 % bound."""
        rows = tracking_sweep(
            ["paper-planetlab"], traces=["diurnal", "flash-replay"],
            solvers=("mine-warm",), sizes=[10], seeds=[0],
        )
        assert [r["trace"] for r in rows] == ["diurnal", "flash-replay"]
        for r in rows:
            assert r["all_retracked"] and r["retracked_epochs"] == r["epochs"]
            assert r["max_error"] <= 0.02

    @pytest.mark.parametrize(
        "scenarios, sizes, seeds, axis",
        [([], [8], [0], "scenarios"),
         (["paper-planetlab"], [], [0], "sizes"),
         (["paper-planetlab"], [8], [], "seeds")],
    )
    def test_empty_axis_rejected(self, scenarios, sizes, seeds, axis):
        with pytest.raises(ValueError, match=f"{axis} is empty"):
            tracking_sweep(scenarios, sizes=sizes, seeds=seeds)

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError, match="traces is empty"):
            tracking_sweep(["paper-planetlab"], sizes=[8], traces=())

    def test_empty_solvers_rejected(self):
        with pytest.raises(ValueError, match="solvers is empty"):
            tracking_sweep(["paper-planetlab"], sizes=[8], solvers=())

    def test_sharded_union_covers_grid(self, tmp_path):
        from repro.engine import JsonlStore

        kw = dict(
            traces=["drift"], sizes=[10], seeds=[0, 1],
            solvers=("mine-warm",), max_sweeps=30,
        )
        s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        r1 = tracking_sweep(["paper-planetlab"], store=s1, shard="1/2", **kw)
        r2 = tracking_sweep(["paper-planetlab"], store=s2, shard="2/2", **kw)
        assert sum(r is not None for r in r1) == 1
        assert sum(r is not None for r in r2) == 1
        merged = JsonlStore.merge(s1, s2, out=tmp_path / "all.jsonl")
        assert len(merged) == 2
        full = tracking_sweep(
            ["paper-planetlab"], store=tmp_path / "all.jsonl", **kw
        )
        assert all(r is not None for r in full)
