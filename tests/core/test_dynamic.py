"""Tests for dynamic-load tracking.

Load trajectories are :mod:`repro.tracking` traces.  Lock-step tracking
replays one trace epoch by epoch through a tracking session: ``mine-warm``
retargets the previous allocation (:func:`repro.core.dynamic.
retarget_allocation`) and re-solves it with a few capped sweeps
(:func:`repro.core.dynamic.reoptimize`), as
:func:`repro.tracking.tracking_sweep` does for whole grids.
"""

import numpy as np
import pytest

from repro.core.qp import solve_coordinate_descent
from repro.engine import get_stateful_solver
from repro.tracking import (
    DiurnalSweepTrace,
    FlashCrowdReplay,
    trace_epochs,
    tracking_sweep,
)
from repro.workloads import ExponentialLoads, cached_instance, get_scenario
from repro.workloads.loadmodels import positive_loads

from ..conftest import make_random_instance


def _loads(trace, m, seed=0):
    """The ``(epochs, m)`` load matrix of one trace cell."""
    return np.stack([loads for _t, loads in trace_epochs(trace, m, seed)])


def _lock_step(inst, trace, *, session=None, seed=0, epochs=None,
               compute_optimum=True, solver="mine-warm", **options):
    """Replay ``trace`` on ``inst``'s fleet through a tracking session.

    Returns the session and one ``(result, optimum)`` pair per epoch
    (``optimum`` is ``None`` when not computed).  Passing a ``session``
    continues it with the next ``epochs`` epochs of the trace.
    """
    if session is None:
        session = get_stateful_solver(solver)(**options)
    first = session.epoch + 1
    spec = trace_epochs(trace, inst.m, seed)
    stop = len(spec) if epochs is None else first + epochs
    out = []
    for k in range(first, stop):
        epoch = inst.with_loads(spec[k][1])
        opt = (
            solve_coordinate_descent(epoch, tol=1e-9).total_cost()
            if compute_optimum
            else None
        )
        res = (
            session.start(epoch, rng=seed, optimum=opt)
            if k == 0
            else session.step(epoch, optimum=opt)
        )
        out.append((res, opt))
    return session, out


class TestLoadProcess:
    def test_nonnegative_and_varying(self):
        tr = _loads("diurnal", 10)
        assert np.all(tr > 0)
        assert not np.allclose(tr[0], tr[6])  # half a day apart

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError, match="base"):
            DiurnalSweepTrace(base=-1.0)

    def test_zero_base_stays_zero(self):
        tr = _loads(DiurnalSweepTrace(base=0.0), 4)
        # every epoch sits on the positive-load floor, nothing more
        np.testing.assert_array_equal(tr, positive_loads(np.zeros_like(tr)))

    def test_diurnal_wave_visible(self):
        """With noise off, the epochs follow the sine."""
        trace = DiurnalSweepTrace(
            base=100.0, amplitude=0.5, regions=1, noise_sigma=0.0, n_epochs=25
        )
        samples = _loads(trace, 1)[:, 0]
        assert samples.max() > 120.0
        assert samples.min() < 80.0

    def test_spikes_occur(self):
        trace = FlashCrowdReplay(
            base=ExponentialLoads(avg=10.0), crowd_fraction=0.2, magnitude=50.0
        )
        tr = _loads(trace, 5)
        # at the crowd's peak one organization carries 1 + 50 times its
        # background load
        assert (tr / tr[0]).max() == pytest.approx(51.0)


class TestDynamicBalancer:
    @pytest.fixture
    def inst(self, rng):
        return make_random_instance(10, rng)

    def test_tracks_within_tolerance(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 10, 0)
        _, records = _lock_step(inst, "diurnal", max_sweeps=3)
        assert len(records) == 12
        errs = [res.relative_error(opt) for res, opt in records]
        # a few sweeps per epoch keep the allocation near-optimal
        assert np.mean(errs) < 0.05
        (row,) = tracking_sweep(
            ["paper-planetlab"], traces=["diurnal"], solvers=["mine-warm"],
            sizes=[10], seeds=[0], max_sweeps=3,
        )
        assert row["mean_error"] == pytest.approx(np.mean(errs), rel=1e-6)

    def test_warm_start_cheaper_than_cold(self, rng):
        """After the first epoch the warm-started session re-tracks with
        fewer exchanges than a cold restart needs."""
        inst = make_random_instance(8, rng)
        exchanges = {}
        for solver in ("mine-warm", "mine-cold"):
            _, records = _lock_step(inst, "drift", solver=solver, max_sweeps=4)
            steps = [res for res, _opt in records[1:]]
            for res in steps:
                assert res.metadata["moved"] >= 0.0
                assert res.metadata["warm"] == (solver == "mine-warm")
                # capped sweeps per epoch
                assert res.iterations <= 4
            exchanges[solver] = sum(res.metadata["exchanges"] for res in steps)
        assert exchanges["mine-warm"] < exchanges["mine-cold"]

    def test_history_accumulates(self, inst):
        session, first = _lock_step(inst, "diurnal", epochs=2, max_sweeps=3)
        _, second = _lock_step(inst, "diurnal", session=session, epochs=3)
        history = first + second
        assert len(history) == 5
        assert [res.metadata["epoch"] for res, _ in history] == [0, 1, 2, 3, 4]
        assert session.epoch == 4

    def test_without_optimum_computation(self, inst):
        _, records = _lock_step(inst, "diurnal", epochs=2, compute_optimum=False)
        assert all(opt is None for _res, opt in records)
        # no bound to reach: sweeps run to the stall and never count
        # exchanges to a bound
        assert all(res.converged for res, _opt in records)
        assert all(
            np.isnan(res.metadata["exchanges_to_bound"]) for res, _opt in records
        )

    def test_survives_spike_epochs(self, rng):
        inst = make_random_instance(8, rng)
        _, records = _lock_step(inst, "flash-replay", max_sweeps=4)
        assert len(records) == 10
        assert np.mean([res.relative_error(opt) for res, opt in records]) < 0.10
