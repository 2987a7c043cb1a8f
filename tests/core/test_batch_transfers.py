"""Property tests for the batched multi-candidate transfer kernel.

``batch_best_transfers`` evaluates all of a server's screened candidates
in one closed-form pass; these tests pin it against the two per-pair
ground truths (``calc_best_transfer``, the vectorized closed form, and
``calc_best_transfer_reference``, the literal Algorithm 1 loop) on
randomized instances — including forbidden (infinite-latency) links and
zero-load organizations.

Columns are compared to a tight absolute tolerance rather than bitwise:
the batch kernel sums loads over the *union* support of all candidates,
and numpy's pairwise summation tree over a superset differs from the
per-pair one by O(ulp) — everything downstream (improvement, argmax,
moved mass) agrees to ~1e-9.
"""

import numpy as np
import pytest

from repro.core.distributed import (
    CandidateTransfers,
    KernelStats,
    MinEOptimizer,
    batch_best_transfers,
    batch_exchange_stats,
    best_partner_screened,
    screen_candidates,
)
from repro.core.instance import Instance
from repro.core.state import AllocationState
from repro.core.transfer import calc_best_transfer, calc_best_transfer_reference

from ..conftest import make_random_instance, random_state

#: Column entries are O(load_scale); 1e-9 absolute is ~1e6 ulps of
#: headroom over the observed O(1e-16) summation-tree dust.
COL_ATOL = 1e-9


def _random_inf_instance(m: int, rng: np.random.Generator) -> Instance:
    """A random instance where ~15 % of links are forbidden."""
    lat = rng.uniform(0.5, 30.0, size=(m, m))
    lat = (lat + lat.T) / 2
    mask = rng.random((m, m)) < 0.15
    mask |= mask.T
    lat[mask] = np.inf
    np.fill_diagonal(lat, 0.0)
    speeds = rng.uniform(1.0, 5.0, size=m)
    loads = rng.exponential(40.0, size=m)
    return Instance(speeds, loads, lat)


def _feasible_state(inst: Instance, rng: np.random.Generator) -> AllocationState:
    """A random allocation that never routes across forbidden links."""
    m = inst.m
    R = np.zeros((m, m))
    for k in range(m):
        finite = np.flatnonzero(np.isfinite(inst.latency[k]))
        R[k, finite] = rng.dirichlet(np.ones(finite.size)) * inst.loads[k]
    return AllocationState(inst, R, validate=False)


def _assert_candidate_parity(inst, R, i, cand, bt: CandidateTransfers):
    """Every candidate's (impr, columns, moved) matches both per-pair
    ground truths; the argmax partner matches whenever it is decisive."""
    best_ref = (-1, -np.inf)
    for pos, j in enumerate(cand):
        ex = calc_best_transfer(inst, R, int(i), int(j))
        ref = calc_best_transfer_reference(inst, R, int(i), int(j))
        assert bt.impr[pos] == pytest.approx(ex.improvement, rel=1e-9, abs=1e-9)
        assert bt.impr[pos] == pytest.approx(ref.improvement, rel=1e-9, abs=1e-6)
        bex = bt.exchange(pos)
        np.testing.assert_allclose(bex.col_i, ex.col_i, atol=COL_ATOL)
        np.testing.assert_allclose(bex.col_j, ex.col_j, atol=COL_ATOL)
        np.testing.assert_allclose(bex.col_i, ref.col_i, atol=1e-6)
        np.testing.assert_allclose(bex.col_j, ref.col_j, atol=1e-6)
        assert bex.moved == pytest.approx(ex.moved, rel=1e-9, abs=COL_ATOL)
        # Totals are conserved: pooled mass and per-org ownership.
        np.testing.assert_allclose(
            bex.col_i + bex.col_j, R[:, i] + R[:, j], atol=COL_ATOL
        )
        if ex.improvement > best_ref[1]:
            best_ref = (int(j), ex.improvement)
    pos, j, impr = bt.best()
    assert impr == pytest.approx(best_ref[1], rel=1e-9, abs=1e-9)
    assert cand[pos] == j
    # The argmax candidate must agree whenever the top two are separated
    # by more than the tolerance (exact ties may break either way).
    if cand.size > 1:
        top2 = np.sort(bt.impr)[-2:]
        if top2[1] - top2[0] > 1e-7:
            assert j == best_ref[0]


class TestBatchAgainstPerPair:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("m", [3, 7, 12])
    def test_all_candidates_match(self, seed, m):
        rng = np.random.default_rng(seed)
        inst = make_random_instance(m, rng)
        state = random_state(inst, rng)
        i = int(rng.integers(m))
        cand = np.array([j for j in range(m) if j != i], dtype=np.intp)
        bt = batch_best_transfers(inst, state.R, i, cand)
        _assert_candidate_parity(inst, state.R, i, cand, bt)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_inf_latency_links(self, seed):
        rng = np.random.default_rng(seed)
        inst = _random_inf_instance(10, rng)
        assert inst.has_inf_latency
        state = _feasible_state(inst, rng)
        i = int(rng.integers(inst.m))
        cand = np.array([j for j in range(inst.m) if j != i], dtype=np.intp)
        bt = batch_best_transfers(inst, state.R, i, cand)
        _assert_candidate_parity(inst, state.R, i, cand, bt)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_zero_load_owners(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_random_instance(9, rng, allow_zero_loads=True)
        loads = inst.loads.copy()
        loads[:: 3] = 0.0  # a third of the orgs own nothing
        inst = Instance(inst.speeds, loads, inst.latency)
        state = random_state(inst, rng)
        i = int(rng.integers(inst.m))
        cand = np.array([j for j in range(inst.m) if j != i], dtype=np.intp)
        bt = batch_best_transfers(inst, state.R, i, cand)
        _assert_candidate_parity(inst, state.R, i, cand, bt)

    def test_subset_of_candidates(self):
        rng = np.random.default_rng(11)
        inst = make_random_instance(14, rng)
        state = random_state(inst, rng)
        cand = np.array([1, 4, 9, 12], dtype=np.intp)
        bt = batch_best_transfers(inst, state.R, 0, cand)
        _assert_candidate_parity(inst, state.R, 0, cand, bt)

    def test_cached_and_support_paths_agree(self):
        """The screened kernel's union-support pass and the exact batch
        over every partner agree — the exact batch both cold and from the
        static caches an exact optimizer warms."""
        rng = np.random.default_rng(12)
        inst = make_random_instance(10, rng)
        state = random_state(inst, rng)
        owners = np.flatnonzero(inst.loads > 0)
        cand = np.array([j for j in range(inst.m) if j != 2], dtype=np.intp)
        bt = batch_best_transfers(inst, state.R, 2, cand)
        rt = np.ascontiguousarray(state.R.T)
        ct = np.ascontiguousarray(inst.latency.T)
        static_cache: dict[int, tuple] = {}
        for _warm in (False, True):
            impr, _ = batch_exchange_stats(
                inst, state.R, 2, owners, rt_full=rt, ct_full=ct,
                static_cache=static_cache,
            )
            assert 2 in static_cache
            np.testing.assert_allclose(impr[cand], bt.impr, atol=1e-9)
            assert int(np.argmax(impr)) == bt.best()[1]


class TestCandidateTransfers:
    def test_empty_candidates(self):
        rng = np.random.default_rng(0)
        inst = make_random_instance(5, rng)
        state = random_state(inst, rng)
        bt = batch_best_transfers(
            inst, state.R, 0, np.array([], dtype=np.intp)
        )
        assert bt.best() == (-1, -1, -np.inf)

    def test_self_candidate_is_minus_inf(self):
        rng = np.random.default_rng(1)
        inst = make_random_instance(6, rng)
        state = random_state(inst, rng)
        cand = np.arange(6, dtype=np.intp)
        bt = batch_best_transfers(inst, state.R, 3, cand)
        assert bt.impr[3] == -np.inf
        _, j, _ = bt.best()
        assert j != 3

    def test_kernel_stats_count_one_dispatch(self):
        rng = np.random.default_rng(2)
        inst = make_random_instance(8, rng)
        state = random_state(inst, rng)
        stats = KernelStats()
        cand = np.array([1, 2, 5], dtype=np.intp)
        batch_best_transfers(inst, state.R, 0, cand, stats=stats)
        batch_best_transfers(inst, state.R, 4, cand, stats=stats)
        assert stats.kernel_calls == 2
        assert stats.kernel_candidates == 6


class TestScreenedConsumers:
    def test_best_partner_screened_is_screened_argmax(self):
        """The screened choice is the true argmax over its candidates."""
        rng = np.random.default_rng(3)
        inst = make_random_instance(20, rng)
        state = random_state(inst, rng)
        loads = state.loads
        screen_cache: dict[int, np.ndarray] = {}
        for i in (0, 7, 13):
            cand = screen_candidates(
                inst, loads, i, screen_width=6, screen_cache=screen_cache
            )
            assert i not in cand
            j, impr = best_partner_screened(
                inst, state.R, i, loads, screen_width=6,
                screen_cache=screen_cache,
            )
            best = max(
                (calc_best_transfer(inst, state.R, i, int(k)).improvement, int(k))
                for k in cand
            )
            assert impr == pytest.approx(best[0], rel=1e-9, abs=1e-9)
        assert set(screen_cache) == {0, 7, 13}

    def test_screened_optimizer_applies_batch_columns(self):
        """A forced-screened optimizer still monotonically converges, its
        state stays consistent, and it dispatches one kernel call per
        screened evaluation."""
        rng = np.random.default_rng(4)
        inst = make_random_instance(15, rng)
        state = AllocationState.initial(inst)
        opt = MinEOptimizer(state, rng=0, strategy="screened", screen_width=5)
        prev = state.total_cost()
        for _ in range(6):
            stats = opt.sweep()
            assert stats.cost_after <= prev + 1e-9
            prev = stats.cost_after
        state.check_invariants()
        # Loads kept incrementally must match a fresh recompute.
        np.testing.assert_allclose(state.loads, state.R.sum(axis=0), atol=1e-8)
        ks = opt.kernel_stats
        assert ks.kernel_calls > 0
        # Screened evaluations batch several candidates per dispatch.
        assert ks.kernel_candidates > ks.kernel_calls

    def test_screened_matches_exact_on_easy_instance(self):
        """With screen_width >= m-1 screening keeps every candidate, so
        the screened sweep must pick the same partners as exact."""
        rng = np.random.default_rng(5)
        inst = make_random_instance(8, rng)
        s1 = AllocationState.initial(inst)
        s2 = AllocationState.initial(inst)
        exact = MinEOptimizer(s1, rng=0, strategy="exact")
        screened = MinEOptimizer(s2, rng=0, strategy="screened", screen_width=8)
        for _ in range(4):
            exact.sweep()
            screened.sweep()
        assert s2.total_cost() == pytest.approx(s1.total_cost(), rel=1e-6)
