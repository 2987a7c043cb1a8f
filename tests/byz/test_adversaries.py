"""The adversary plane: config validation, deterministic selection,
and the f = 0 no-op guarantee.

The plane draws only from its own entropy-separated streams, so a run
with no adversaries (f = 0, or no model at all) must be bit-identical
to a run that never imported the module — asserted on the event trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.byz import ByzantineModel
from repro.livesim import LiveConfig, LiveSimulation
from repro.workloads import cached_instance, get_scenario


def _sim(cfg, seed=3, m=16, rounds=60):
    inst = cached_instance(get_scenario("paper-planetlab"), m, 0)
    sim = LiveSimulation(inst, config=cfg, seed=seed)
    rep = sim.run(rounds=rounds)
    return sim, rep


class TestModelValidation:
    def test_models_roundtrip(self):
        for name in ("stale-repeater", "load-underreporter",
                     "value-fabricator", "flapper"):
            assert ByzantineModel(model=name).model == name

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "evil-twin"},
            {"model": "stale-repeater", "f": -1},
            {"model": "stale-repeater", "f": 2, "servers": (1,)},
            {"model": "load-underreporter", "underreport_factor": 1.0},
            {"model": "load-underreporter", "underreport_factor": -0.1},
            {"model": "value-fabricator", "fabricate_scale": 0.0},
            {"model": "value-fabricator", "fabricate_count": 0},
            {"model": "flapper", "flap_rounds": 0.0},
            {"model": "flapper", "flap_inner": "flapper"},
            {"model": "stale-repeater", "version_bump": 0},
            {"model": "stale-repeater", "cadence_scale": 0.0},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ByzantineModel(**kwargs)

    def test_explicit_servers_validated_at_attach(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        bad_range = LiveConfig(
            byzantine=ByzantineModel(
                model="stale-repeater", f=1, servers=(12,)
            )
        )
        with pytest.raises(ValueError, match="in \\[0, 12\\)"):
            LiveSimulation(inst, config=bad_range, seed=0)
        dup = LiveConfig(
            byzantine=ByzantineModel(
                model="stale-repeater", f=2, servers=(3, 3)
            )
        )
        with pytest.raises(ValueError, match="distinct"):
            LiveSimulation(inst, config=dup, seed=0)
        too_many = LiveConfig(
            byzantine=ByzantineModel(model="stale-repeater", f=13)
        )
        with pytest.raises(ValueError, match="f <= m"):
            LiveSimulation(inst, config=too_many, seed=0)

    def test_robust_merge_needs_five_servers(self):
        """A quorum of 3 reporters other than the origin and the
        receiver needs m >= 5; the error names the merge mode."""
        robust = LiveConfig(merge_mode="robust")
        small = cached_instance(get_scenario("paper-planetlab"), 4, 0)
        with pytest.raises(ValueError, match='merge_mode="robust".*m=4'):
            LiveSimulation(small, config=robust, seed=0)
        five = cached_instance(get_scenario("paper-planetlab"), 5, 0)
        LiveSimulation(five, config=robust, seed=0)


class TestSelectionDeterminism:
    def test_same_seed_same_servers(self):
        cfg = LiveConfig(byzantine=ByzantineModel(model="stale-repeater", f=3))
        sim_a, _ = _sim(cfg, seed=5, rounds=10)
        sim_b, _ = _sim(cfg, seed=5, rounds=10)
        assert sim_a.byz.servers == sim_b.byz.servers
        assert len(sim_a.byz.servers) == 3

    def test_selection_varies_with_seed(self):
        cfg = LiveConfig(byzantine=ByzantineModel(model="stale-repeater", f=3))
        picks = {
            _sim(cfg, seed=s, rounds=2)[0].byz.servers for s in range(5)
        }
        assert len(picks) > 1, "adversary pick ignored the run seed"

    def test_explicit_servers_respected(self):
        cfg = LiveConfig(
            byzantine=ByzantineModel(
                model="stale-repeater", f=2, servers=(1, 7)
            )
        )
        sim, _ = _sim(cfg, rounds=10)
        assert sim.byz.servers == (1, 7)


class TestFZeroIsANoOp:
    def test_f_zero_trace_identical_to_no_model(self):
        plain = LiveConfig()
        f0 = LiveConfig(byzantine=ByzantineModel(model="stale-repeater", f=0))
        sim_a, rep_a = _sim(plain, seed=11)
        sim_b, rep_b = _sim(f0, seed=11)
        assert sim_b.byz is None, "an f=0 model must not attach a plane"
        assert rep_a.trace == rep_b.trace
        assert rep_a.trace
        np.testing.assert_array_equal(sim_a.state.R, sim_b.state.R)

    def test_robust_merge_alone_converges(self):
        """The defense with nothing to defend against: robust merge on,
        zero adversaries, honest fleet still balances."""
        inst = cached_instance(get_scenario("paper-planetlab"), 16, 0)
        sim = LiveSimulation(
            inst, config=LiveConfig(merge_mode="robust"), seed=2
        )
        rep = sim.run(rounds=120)
        assert rep.costs[-1] <= rep.costs[0]
        assert rep.suspicion is not None
        assert rep.suspicion.shape == (16,)


class TestAdversariesMisbehave:
    def test_stale_repeater_counters(self):
        cfg = LiveConfig(byzantine=ByzantineModel(model="stale-repeater", f=2))
        sim, _ = _sim(cfg, rounds=40)
        assert sim.byz.stats.misreports > 0
        assert sim.byz.stats.injections > 0
        assert sim.byz.stats.forged_entries > 0

    def test_blackhole_refuses(self):
        cfg = LiveConfig(
            byzantine=ByzantineModel(
                model="load-underreporter", underreport_factor=0.0, f=2
            )
        )
        sim, _ = _sim(cfg, rounds=40)
        assert sim.byz.stats.misreports > 0
        assert sim.byz.stats.refusals > 0, (
            "no honest proposal was lured into the blackhole"
        )

    def test_flapper_alternates_phases(self):
        model = ByzantineModel(model="flapper", flap_rounds=4.0, f=1)
        sim, _ = _sim(LiveConfig(byzantine=model), rounds=40)
        plane = sim.byz
        (a,) = plane.servers
        period = model.flap_rounds * plane.agent_interval
        # Phase parity follows the phase clock: faulty first.
        env_now = plane.env.now
        assert plane._faulty_phase() == (
            (int(env_now / period) % 2) == 0
        )
        assert plane.stats.misreports > 0, "flapper never misbehaved"
