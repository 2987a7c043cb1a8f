"""Tests for the request-processing simulation layer — validates the
paper's analytic congestion model empirically."""

import numpy as np
import pytest

from repro import AllocationState, Instance
from repro.core.qp import solve_coordinate_descent
from repro.net import planetlab_like_latency
from repro.sim.events import Environment
from repro.sim.runner import _integer_allocation, simulate_snapshot, simulate_stream
from repro.sim.server import Request, SimServer


class TestSimServer:
    def test_fifo_service(self):
        env = Environment()
        srv = SimServer(env, 0, speed=2.0)
        reqs = [Request(owner=0, server=0) for _ in range(4)]
        for r in reqs:
            srv.submit(r)
        env.run()
        # completion times 0.5, 1.0, 1.5, 2.0
        assert [r.t_complete for r in reqs] == [0.5, 1.0, 1.5, 2.0]

    def test_idle_then_work(self):
        env = Environment()
        srv = SimServer(env, 0, speed=1.0)

        env.call_at(
            10.0, lambda _v: srv.submit(Request(owner=0, server=0, t_submit=env.now))
        )
        env.run()
        assert srv.completed[0].t_complete == pytest.approx(11.0)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            SimServer(Environment(), 0, speed=0.0)


class TestIntegerAllocation:
    def test_preserves_row_sums(self):
        rng = np.random.default_rng(0)
        R = rng.uniform(0, 10, (6, 6))
        counts = _integer_allocation(R, rng)
        assert np.all(counts >= 0)
        assert np.allclose(counts.sum(axis=1), np.round(R.sum(axis=1)), atol=1)

    def test_integer_input_unchanged(self):
        rng = np.random.default_rng(0)
        R = np.array([[3.0, 2.0], [0.0, 5.0]])
        counts = _integer_allocation(R, rng)
        assert np.array_equal(counts, R.astype(np.int64))


class TestSnapshotValidation:
    def test_matches_analytic_model(self):
        """Measured total latency ≈ ΣCi for large loads (the l/2s congestion
        model — Section II)."""
        rng = np.random.default_rng(1)
        m = 6
        inst = Instance(
            rng.uniform(1, 5, m),
            rng.uniform(800, 2000, m),
            planetlab_like_latency(m, rng=rng),
        )
        opt = solve_coordinate_descent(inst)
        report = simulate_snapshot(inst, opt, rng=2)
        # finite-size correction is O(m/l) ≈ 0.5%
        assert report.analytic_gap(opt.total_cost()) < 0.02

    def test_unbalanced_state_also_matches(self):
        rng = np.random.default_rng(3)
        m = 4
        inst = Instance(
            rng.uniform(1, 5, m),
            rng.uniform(500, 1500, m),
            planetlab_like_latency(m, rng=rng),
        )
        st = AllocationState.initial(inst)
        report = simulate_snapshot(inst, st, rng=4)
        assert report.analytic_gap(st.total_cost()) < 0.02

    def test_balancing_helps_in_simulation(self):
        """The optimizer's improvement is visible in the simulated system,
        not just in the analytic objective."""
        rng = np.random.default_rng(5)
        m = 8
        loads = np.zeros(m)
        loads[0] = 5000.0  # peak
        inst = Instance(
            rng.uniform(1, 5, m), loads, planetlab_like_latency(m, rng=rng)
        )
        naive = simulate_snapshot(inst, AllocationState.initial(inst), rng=6)
        opt = solve_coordinate_descent(inst)
        balanced = simulate_snapshot(inst, opt, rng=6)
        assert balanced.total_latency < 0.5 * naive.total_latency

    def test_per_org_totals_sum(self):
        rng = np.random.default_rng(7)
        m = 4
        inst = Instance(
            rng.uniform(1, 5, m),
            rng.uniform(100, 300, m),
            planetlab_like_latency(m, rng=rng),
        )
        report = simulate_snapshot(inst, AllocationState.initial(inst), rng=8)
        assert report.per_org_total.sum() == pytest.approx(report.total_latency)


class TestStream:
    def test_stable_system_completes_requests(self):
        rng = np.random.default_rng(9)
        m = 4
        # arrival rate scaled well below capacity
        inst = Instance(
            np.full(m, 2.0),
            np.full(m, 1.0),  # 1 request per unit time per org
            planetlab_like_latency(m, rng=rng) * 0.01,
        )
        st = AllocationState.initial(inst)
        report = simulate_stream(inst, st, horizon=200.0, rng=10)
        assert report.completed > 100
        # sojourn ≈ service time 0.5 plus light queueing
        assert report.mean_latency < 3.0

    def test_balancing_reduces_streaming_latency(self):
        """Overloaded server melts down; the balanced allocation keeps the
        same traffic stable."""
        rng = np.random.default_rng(11)
        m = 3
        loads = np.array([3.0, 0.1, 0.1])  # org 0 produces 3 req/s
        inst = Instance(
            np.full(m, 1.5),  # each server serves 1.5 req/s
            loads,
            np.full((m, m), 0.05) - 0.05 * np.eye(m),
        )
        naive = simulate_stream(
            inst, AllocationState.initial(inst), horizon=150.0, rng=12
        )
        opt = solve_coordinate_descent(inst)
        balanced = simulate_stream(inst, opt, horizon=150.0, rng=12)
        assert balanced.mean_latency < naive.mean_latency

    def test_zero_rate_org(self):
        inst = Instance(
            np.ones(2), np.array([0.0, 1.0]), np.zeros((2, 2))
        )
        report = simulate_stream(
            inst, AllocationState.initial(inst), horizon=50.0, rng=0
        )
        assert all(r.owner == 1 for r in [])  # trivially fine
        assert report.completed > 0
