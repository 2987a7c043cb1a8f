"""Tests for the distributed MinE algorithm (Algorithms 1 + 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AllocationState
from repro.core.distributed import (
    MinEOptimizer,
    batch_exchange_stats,
    best_partner_exact,
)
from repro.core.qp import solve_coordinate_descent
from repro.core.transfer import calc_best_transfer

from ..conftest import make_random_instance, random_state


class TestBatchExchange:
    def test_matches_per_pair_evaluation(self, rng):
        """Batched impr/moved equal per-pair calc_best_transfer results."""
        inst = make_random_instance(9, rng)
        state = random_state(inst, rng)
        owners = np.flatnonzero(inst.loads > 0)
        i = 3
        impr, moved = batch_exchange_stats(inst, state.R, i, owners)
        for j in range(inst.m):
            if j == i:
                continue
            ex = calc_best_transfer(inst, state.R, i, j)
            assert impr[j] == pytest.approx(ex.improvement, rel=1e-9, abs=1e-6)
            assert moved[j] == pytest.approx(ex.moved, rel=1e-9, abs=1e-6)

    def test_moved_matches_per_pair_on_tied_differences(self):
        """Tied latency differences split a transfer among owners of equal
        cost; ``moved`` must report the split the exchange applies."""
        rng = np.random.default_rng(12)
        inst = make_random_instance(10, rng)
        state = random_state(inst, rng)
        owners = np.flatnonzero(inst.loads > 0)
        d = inst.latency[:, 5] - inst.latency[:, 2]
        assert np.unique(d).size < d.size  # the case needs ties
        _, moved = batch_exchange_stats(inst, state.R, 2, owners, state.loads)
        for j in range(inst.m):
            if j != 2:
                ex = calc_best_transfer(inst, state.R, 2, j)
                assert moved[j] == pytest.approx(ex.moved, rel=1e-9, abs=1e-9)

    def test_self_column_is_minus_inf(self, rng):
        inst = make_random_instance(5, rng)
        state = random_state(inst, rng)
        owners = np.flatnonzero(inst.loads > 0)
        impr, moved = batch_exchange_stats(inst, state.R, 2, owners)
        assert impr[2] == -np.inf
        assert moved[2] == 0.0

    def test_best_partner_is_argmax(self, rng):
        inst = make_random_instance(7, rng)
        state = random_state(inst, rng)
        owners = np.flatnonzero(inst.loads > 0)
        j, val = best_partner_exact(inst, state.R, 0, owners)
        for k in range(1, inst.m):
            ex = calc_best_transfer(inst, state.R, 0, k)
            assert ex.improvement <= val + 1e-6


class TestSweep:
    def test_cost_monotonically_decreases(self, rng):
        inst = make_random_instance(12, rng)
        state = AllocationState.initial(inst)
        opt = MinEOptimizer(state, rng=0)
        prev = state.total_cost()
        for _ in range(5):
            stats = opt.sweep()
            assert stats.cost_after <= prev + 1e-6
            prev = stats.cost_after
        state.check_invariants()

    def test_converges_to_cd_optimum(self, rng):
        inst = make_random_instance(10, rng)
        ref = solve_coordinate_descent(inst).total_cost()
        state = AllocationState.initial(inst)
        trace = MinEOptimizer(state, rng=0).run(
            max_iterations=50, optimum=ref, rel_tol=1e-3
        )
        assert trace.converged
        assert state.total_cost() <= ref * 1.001 + 1e-9

    def test_strategies_agree(self, rng):
        """Exact and screened (wide) strategies reach the same cost."""
        inst = make_random_instance(10, rng)
        costs = {}
        for strategy in ("exact", "screened"):
            state = AllocationState.initial(inst)
            opt = MinEOptimizer(
                state, rng=1, strategy=strategy, screen_width=inst.m - 1
            )
            opt.run(max_iterations=20)
            costs[strategy] = state.total_cost()
        assert costs["exact"] == pytest.approx(costs["screened"], rel=1e-6)

    def test_narrow_screening_still_converges(self, rng):
        inst = make_random_instance(12, rng)
        ref = solve_coordinate_descent(inst).total_cost()
        state = AllocationState.initial(inst)
        MinEOptimizer(state, rng=1, strategy="screened", screen_width=3).run(
            max_iterations=40
        )
        assert state.total_cost() <= ref * 1.02

    def test_snapshot_partner_selection_converges(self, rng):
        inst = make_random_instance(10, rng)
        ref = solve_coordinate_descent(inst).total_cost()
        state = AllocationState.initial(inst)
        trace = MinEOptimizer(
            state, rng=1, snapshot_partner_selection=True
        ).run(max_iterations=50, optimum=ref, rel_tol=0.01)
        assert trace.converged

    def test_cycle_removal_does_not_hurt(self, rng):
        inst = make_random_instance(9, rng)
        state_a = AllocationState.initial(inst)
        state_b = AllocationState.initial(inst)
        MinEOptimizer(state_a, rng=2).run(max_iterations=15)
        MinEOptimizer(state_b, rng=2, cycle_removal_every=2).run(max_iterations=15)
        assert state_b.total_cost() <= state_a.total_cost() * (1 + 1e-6) + 1e-6
        state_b.check_invariants()

    def test_trace_records_costs(self, rng):
        inst = make_random_instance(6, rng)
        state = AllocationState.initial(inst)
        trace = MinEOptimizer(state, rng=0).run(max_iterations=10)
        assert len(trace.costs) == trace.iterations + 1
        assert trace.costs[0] >= trace.costs[-1] - 1e-9
        errs = trace.relative_errors(trace.costs[-1])
        assert errs[-1] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_strategy_rejected(self, rng):
        inst = make_random_instance(4, rng)
        with pytest.raises(ValueError):
            MinEOptimizer(AllocationState.initial(inst), strategy="bogus")

    def test_zero_screen_width_rejected(self, rng):
        inst = make_random_instance(4, rng)
        with pytest.raises(ValueError, match="screen_width"):
            MinEOptimizer(AllocationState.initial(inst), screen_width=0)

    def test_peak_distribution_spreads_load(self, rng):
        """Peak load on one server gets distributed across the network."""
        import repro

        m = 15
        loads = np.zeros(m)
        loads[4] = 10_000.0
        inst = repro.Instance(
            rng.uniform(1, 5, m), loads, repro.planetlab_like_latency(m, rng=rng)
        )
        state = AllocationState.initial(inst)
        MinEOptimizer(state, rng=0).run(max_iterations=30)
        # most servers should carry some load at the end
        assert (state.loads > 1.0).sum() >= m - 2
        ref = solve_coordinate_descent(inst).total_cost()
        assert state.total_cost() <= ref * 1.01

    def test_zero_load_instance_is_noop(self):
        import repro

        inst = repro.Instance(
            np.ones(4), np.zeros(4), repro.homogeneous_latency(4, 2.0)
        )
        state = AllocationState.initial(inst)
        trace = MinEOptimizer(state, rng=0).run(max_iterations=5)
        assert state.total_cost() == 0.0
        assert trace.iterations <= 1


class TestLoadView:
    def test_stale_view_still_converges(self, rng):
        """Partner selection from a stale load vector slows but does not
        break convergence (exchange itself uses true state)."""
        inst = make_random_instance(10, rng)
        ref = solve_coordinate_descent(inst).total_cost()
        state = AllocationState.initial(inst)
        stale = {"loads": state.loads.copy()}

        def view(_i: int) -> np.ndarray:
            return stale["loads"]

        opt = MinEOptimizer(state, rng=0, load_view=view)
        for _ in range(25):
            opt.sweep()
            stale["loads"] = state.loads.copy()  # refresh once per sweep
        assert state.total_cost() <= ref * 1.02


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 10))
def test_mine_never_increases_cost_property(seed, m):
    rng = np.random.default_rng(seed)
    inst = make_random_instance(m, rng)
    state = random_state(inst, rng)
    opt = MinEOptimizer(state, rng=seed)
    before = state.total_cost()
    stats = opt.sweep()
    assert stats.cost_after <= before + 1e-6
    state.check_invariants()
