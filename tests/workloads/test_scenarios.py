"""Tests for the scenario registry and presets."""

import numpy as np
import pytest

from repro import Instance
from repro.net.latency import is_metric
from repro.tracking import DiurnalSweepTrace, trace_epochs
from repro.workloads import (
    ExponentialLoads,
    Scenario,
    fat_tree_latency,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.workloads.scenario import _REGISTRY, PRESETS


class TestPresets:
    def test_expected_presets_registered(self):
        names = set(list_scenarios())
        assert {
            "paper-homogeneous",
            "paper-planetlab",
            "cdn-flashcrowd",
            "federation-diurnal",
            "datacenter-fattree",
        } <= names

    @pytest.mark.parametrize("name", sorted(s.name for s in PRESETS))
    def test_preset_produces_valid_instance(self, name):
        inst = get_scenario(name).instance(m=18, seed=0)
        assert isinstance(inst, Instance)
        assert inst.m == 18
        # positive loads everywhere...
        assert np.all(inst.loads > 0)
        # ...and a valid, metric latency matrix.
        c = inst.latency
        assert np.all(np.isfinite(c))
        assert np.all(np.diagonal(c) == 0)
        assert np.all(c[~np.eye(18, dtype=bool)] > 0)
        assert is_metric(c, atol=1e-6)

    @pytest.mark.parametrize("name", sorted(s.name for s in PRESETS))
    def test_preset_deterministic(self, name):
        sc = get_scenario(name)
        assert sc.instance(m=12, seed=3) == sc.instance(m=12, seed=3)

    def test_different_cells_differ(self):
        sc = get_scenario("paper-planetlab")
        assert sc.instance(m=12, seed=0) != sc.instance(m=12, seed=1)
        assert sc.instance(m=12, seed=0) != sc.instance(m=13, seed=0)
        other = get_scenario("cdn-flashcrowd")
        assert sc.instance(m=12, seed=0) != other.instance(m=12, seed=0)

    def test_paper_homogeneous_matches_section_via(self):
        inst = get_scenario("paper-homogeneous").instance(m=10, seed=0)
        off = inst.latency[~np.eye(10, dtype=bool)]
        np.testing.assert_array_equal(off, 20.0)


class TestScenario:
    def test_default_m_used(self):
        sc = get_scenario("paper-planetlab")
        assert sc.instance().m == sc.m

    def test_load_trace(self):
        """A scenario's load trajectory is a tracking trace replayed on its
        instance: loads move per epoch, topology and speeds persist."""
        inst = get_scenario("federation-diurnal").instance(m=9, seed=0)
        epochs = [
            inst.with_loads(loads)
            for _t, loads in trace_epochs(DiurnalSweepTrace(n_epochs=4), 9, 0)
        ]
        tr = np.stack([e.loads for e in epochs])
        assert tr.shape == (4, 9)
        assert np.all(tr > 0)
        for e in epochs:
            np.testing.assert_array_equal(e.speeds, inst.speeds)
            np.testing.assert_array_equal(e.latency, inst.latency)

    def test_with_overrides(self):
        sc = get_scenario("paper-planetlab").with_overrides(m=7, seed=9)
        assert sc.m == 7 and sc.seed == 9
        assert sc.instance().m == 7

    def test_constant_speeds(self):
        sc = Scenario(
            name="tmp-const",
            topology=fat_tree_latency,
            load_model=ExponentialLoads(10.0),
            m=6,
            speed_range=(2.0, 2.0),
        )
        np.testing.assert_array_equal(sc.instance().speeds, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one organization"):
            Scenario("bad", fat_tree_latency, ExponentialLoads(), m=0)
        with pytest.raises(ValueError, match="speed_range"):
            Scenario("bad", fat_tree_latency, ExponentialLoads(), speed_range=(0.0, 1.0))


class TestRegistry:
    def test_register_and_get(self):
        sc = Scenario(
            name="test-registry-entry",
            topology=fat_tree_latency,
            load_model=ExponentialLoads(5.0),
            m=5,
            description="temporary",
        )
        try:
            register_scenario(sc)
            assert get_scenario("test-registry-entry") is sc
            assert list_scenarios()["test-registry-entry"] == "temporary"
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(sc)
            register_scenario(sc, overwrite=True)  # allowed
        finally:
            _REGISTRY.pop("test-registry-entry", None)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")
