"""Unit tests for :mod:`repro.workloads.loadmodels`."""

import numpy as np
import pytest

from repro.tracking import DiurnalSweepTrace, RegimeSwitchTrace, trace_epochs
from repro.workloads import (
    CorrelatedSurgeLoads,
    DiurnalLoads,
    ExponentialLoads,
    FlashCrowdLoads,
    LoadModel,
    LognormalLoads,
    ParetoLoads,
    UniformLoads,
    scale_to_average,
)

ALL_MODELS = [
    UniformLoads(),
    ExponentialLoads(),
    DiurnalLoads(),
    FlashCrowdLoads(),
    ParetoLoads(),
    LognormalLoads(),
    CorrelatedSurgeLoads(),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
class TestAllModels:
    def test_sample_shape_and_positivity(self, model):
        loads = model.sample(37, np.random.default_rng(0))
        assert loads.shape == (37,)
        assert np.all(np.isfinite(loads))
        assert np.all(loads > 0)

    def test_deterministic_under_fixed_seed(self, model):
        a = model.sample(25, np.random.default_rng(42))
        b = model.sample(25, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, model):
        a = model.sample(25, np.random.default_rng(1))
        b = model.sample(25, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_trace_shape(self, model):
        """Trajectories are tracking traces: any model drives one (a
        single-model regime switch re-draws the snapshot every epoch)."""
        trace = RegimeSwitchTrace(models=(model,), n_epochs=5, switch_prob=1.0)
        tr = np.stack([loads for _t, loads in trace_epochs(trace, 10)])
        assert tr.shape == (5, 10)
        assert np.all(tr > 0)

    def test_satisfies_protocol(self, model):
        assert isinstance(model, LoadModel)


class TestSpecifics:
    def test_flash_crowd_has_hot_spot(self):
        loads = FlashCrowdLoads(base=10.0, magnitude=200.0).sample(
            40, np.random.default_rng(0)
        )
        # The spike dwarfs the exponential background.
        assert loads.max() > 20 * np.median(loads)

    def test_pareto_is_heavy_tailed(self):
        loads = ParetoLoads(shape=1.2, scale=10.0).sample(
            500, np.random.default_rng(0)
        )
        assert loads.max() > 10 * loads.mean()

    def test_diurnal_trace_oscillates(self):
        """A day of the diurnal sine, swept as a tracking trace."""
        trace = DiurnalSweepTrace(
            base=100.0, amplitude=0.9, regions=1, noise_sigma=0.0, n_epochs=24
        )
        tr = np.stack([loads for _t, loads in trace_epochs(trace, 5)])
        col = tr[:, 0]
        assert col.max() > 1.5 * col.min()
        # one region, no noise: every organization rides the same wave
        np.testing.assert_array_equal(tr, np.repeat(tr[:, :1], 5, axis=1))

    def test_diurnal_rejects_bad_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalLoads(amplitude=1.5)

    def test_correlated_surge_is_regionwise(self):
        model = CorrelatedSurgeLoads(
            regions=2, base=10.0, surge_prob=0.5, surge_factor=100.0,
            noise_sigma=0.01,
        )
        # Across seeds, samples are either unimodal (no/all surge) or split
        # into two well-separated groups; check the split case exists.
        found_split = False
        for seed in range(20):
            loads = model.sample(60, np.random.default_rng(seed))
            hot = loads > 100.0
            if 0 < hot.sum() < 60:
                found_split = True
                break
        assert found_split

    def test_scale_to_average(self):
        rng = np.random.default_rng(0)
        loads = ExponentialLoads(avg=5.0).sample(100, rng)
        scaled = scale_to_average(loads, 200.0)
        assert scaled.mean() == pytest.approx(200.0)
