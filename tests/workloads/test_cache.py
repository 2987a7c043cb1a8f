"""The cross-sweep memo cache: identical results, skipped solves, and
the scenario-redefinition guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import (
    ExponentialLoads,
    Scenario,
    ScenarioRunner,
    cache_stats,
    cached_instance,
    cached_optimum,
    clear_cache,
    get_scenario,
    instance_digest,
)
from repro.workloads.scenario import _homogeneous_20ms


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestInstanceCache:
    def test_same_object_on_hit(self):
        sc = get_scenario("paper-homogeneous")
        a = cached_instance(sc, 12, 0)
        b = cached_instance(sc, 12, 0)
        assert a is b
        stats = cache_stats()
        assert stats.instance_hits == 1 and stats.instance_misses == 1

    def test_matches_direct_materialization(self):
        sc = get_scenario("cdn-flashcrowd")
        inst = cached_instance(sc, 14, 3)
        direct = sc.instance(14, seed=3)
        np.testing.assert_array_equal(inst.speeds, direct.speeds)
        np.testing.assert_array_equal(inst.loads, direct.loads)
        np.testing.assert_array_equal(inst.latency, direct.latency)

    def test_distinct_cells_distinct_entries(self):
        sc = get_scenario("paper-homogeneous")
        assert cached_instance(sc, 12, 0) is not cached_instance(sc, 12, 1)
        assert cached_instance(sc, 12, 0) is not cached_instance(sc, 14, 0)

    def test_redefined_scenario_never_serves_stale(self):
        sc = Scenario(
            name="cache-guard",
            topology=_homogeneous_20ms,
            load_model=ExponentialLoads(avg=50.0),
            m=10,
        )
        a = cached_instance(sc, 10, 0)
        redefined = sc.with_overrides(load_model=ExponentialLoads(avg=500.0))
        b = cached_instance(redefined, 10, 0)
        assert b is not a
        assert b.total_load != pytest.approx(a.total_load)


class TestOptimumCache:
    def test_hit_skips_the_solve(self):
        sc = get_scenario("paper-planetlab")
        state1, cost1, wall1, hit1 = cached_optimum(sc, 12, 0)
        state2, cost2, wall2, hit2 = cached_optimum(sc, 12, 0)
        assert (hit1, hit2) == (False, True)
        assert wall2 == 0.0
        assert cost1 == cost2
        np.testing.assert_array_equal(state1.R, state2.R)

    def test_returns_fresh_copies(self):
        """Optimizers mutate states in place; a hit must not leak the
        cached arrays."""
        sc = get_scenario("paper-planetlab")
        state1, _, _, _ = cached_optimum(sc, 12, 0)
        state1.R[0, 0] += 123.0
        state2, _, _, _ = cached_optimum(sc, 12, 0)
        assert state2.R[0, 0] != state1.R[0, 0]

    def test_concurrent_threads_share_one_solve(self):
        """Under the threads backend, cells with the same key must wait
        for one solve rather than duplicate it."""
        from concurrent.futures import ThreadPoolExecutor

        sc = get_scenario("paper-planetlab")
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda _: cached_optimum(sc, 14, 0), range(8))
            )
        assert cache_stats().optimum_misses == 1
        assert cache_stats().optimum_hits == 7
        costs = {cost for _, cost, _, _ in results}
        assert len(costs) == 1

    def test_tolerance_is_part_of_the_key(self):
        sc = get_scenario("paper-homogeneous")
        _, _, _, hit_a = cached_optimum(sc, 10, 0, tol=1e-9)
        _, _, _, hit_b = cached_optimum(sc, 10, 0, tol=1e-6)
        assert (hit_a, hit_b) == (False, False)


class TestRunnerIntegration:
    def test_rerun_hits_the_cache_and_matches(self):
        runner = ScenarioRunner(
            ["paper-homogeneous"], sizes=[10], seeds=[0, 1], metrics=("mine",)
        )
        first = runner.run()
        misses = cache_stats().optimum_misses
        second = runner.run()  # re-sweep: every optimum comes from cache
        assert cache_stats().optimum_misses == misses
        assert cache_stats().optimum_hits >= 2
        assert first == second


class TestDiskTier:
    def test_second_process_would_skip_the_solve(self, tmp_path):
        """A cleared in-process memo (= a fresh process / another shard)
        is served from the npz tier instead of re-solving."""
        from repro.workloads import get_cache_dir, set_cache_dir
        from repro.workloads.cache import cache_stats

        sc = get_scenario("paper-homogeneous")
        prev = set_cache_dir(tmp_path)
        try:
            clear_cache()
            st1, cost1, wall1, hit1 = cached_optimum(sc, 10, 0)
            assert not hit1 and cache_stats().disk_misses == 1
            assert len(list(tmp_path.glob("*.npz"))) == 1
            clear_cache()  # simulate a different process
            st2, cost2, wall2, hit2 = cached_optimum(sc, 10, 0)
            assert hit2 and wall2 == 0.0
            assert cache_stats().disk_hits == 1
            assert cache_stats().optimum_misses == 0
            assert cost2 == cost1
            np.testing.assert_array_equal(st1.R, st2.R)
            assert get_cache_dir() == str(tmp_path)
        finally:
            set_cache_dir(prev)
            clear_cache()

    def test_file_name_carries_solver_params_and_digest(self, tmp_path):
        from repro.workloads import set_cache_dir

        sc = get_scenario("paper-homogeneous")
        prev = set_cache_dir(tmp_path)
        try:
            clear_cache()
            cached_optimum(sc, 10, 0)
            cached_optimum(sc, 10, 0, tol=1e-6)   # different tolerance
            cached_optimum(sc, 10, 1)             # different seed
            assert len(list(tmp_path.glob("*.npz"))) == 3
            digest = instance_digest(cached_instance(sc, 10, 1))
            assert (tmp_path / f"{sc.name}-m10-s1-tol1e-09-auto-{digest}.npz").exists()
        finally:
            set_cache_dir(prev)
            clear_cache()

    def test_corrupt_file_falls_back_to_solving(self, tmp_path):
        from repro.workloads import set_cache_dir
        from repro.workloads.cache import _disk_path

        sc = get_scenario("paper-homogeneous")
        prev = set_cache_dir(tmp_path)
        try:
            clear_cache()
            inst = cached_instance(sc, 10, 0)
            path = _disk_path(sc, inst, 10, 0, 1e-9, "auto")
            with open(path, "wb") as fh:
                fh.write(b"not an npz")
            clear_cache()
            st, cost, _, hit = cached_optimum(sc, 10, 0)
            assert not hit  # solved fresh, did not crash
            assert cost > 0
        finally:
            set_cache_dir(prev)
            clear_cache()

    def test_disabled_tier_writes_nothing(self, tmp_path):
        from repro.workloads import get_cache_dir, set_cache_dir

        prev = set_cache_dir(None)
        try:
            clear_cache()
            assert get_cache_dir() is None
            cached_optimum(get_scenario("paper-homogeneous"), 10, 0)
            assert list(tmp_path.glob("*.npz")) == []
        finally:
            set_cache_dir(prev)
            clear_cache()
