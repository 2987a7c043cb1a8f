"""Tests for the centralized solvers (Section III)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AllocationState, Instance
from repro.core.cost import cost_gradient
from repro.core.qp import (
    project_simplex,
    solve_coordinate_descent,
    solve_fista,
    solve_optimal,
    solve_qp_scipy,
)
from repro.workloads import PRESETS, TRUST_PRESETS, get_scenario

from ..conftest import make_random_instance
from .test_waterfill import reference_waterfill_unbounded


class TestProjectSimplex:
    def test_already_feasible(self):
        y = np.array([0.3, 0.7])
        assert np.allclose(project_simplex(y, 1.0), y)

    def test_projects_negative_away(self):
        r = project_simplex(np.array([-5.0, 1.0]), 1.0)
        assert np.allclose(r, [0.0, 1.0])

    def test_sum_constraint(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=7) * 10
            total = float(rng.uniform(0.1, 50))
            r = project_simplex(y, total)
            assert r.sum() == pytest.approx(total)
            assert np.all(r >= 0)

    def test_zero_total(self):
        assert np.all(project_simplex(np.array([1.0, 2.0]), 0.0) == 0)

    def test_is_euclidean_projection(self):
        """Check against scipy for a random point."""
        from scipy.optimize import LinearConstraint, minimize

        rng = np.random.default_rng(1)
        y = rng.normal(size=5) * 3
        r = project_simplex(y, 2.0)
        res = minimize(
            lambda x: ((x - y) ** 2).sum(),
            np.full(5, 0.4),
            bounds=[(0, None)] * 5,
            constraints=[LinearConstraint(np.ones((1, 5)), 2.0, 2.0)],
        )
        assert np.allclose(r, res.x, atol=1e-5)


class TestSolverAgreement:
    def test_three_solvers_agree_small(self, rng):
        inst = make_random_instance(5, rng)
        cd = solve_coordinate_descent(inst)
        fi = solve_fista(inst, max_iterations=5000)
        qp = solve_qp_scipy(inst)
        c_cd, c_fi, c_qp = cd.total_cost(), fi.total_cost(), qp.total_cost()
        assert c_cd == pytest.approx(c_qp, rel=1e-5)
        assert c_fi == pytest.approx(c_qp, rel=1e-4)

    def test_qp_scipy_rejects_large(self, rng):
        inst = make_random_instance(13, rng)
        with pytest.raises(ValueError, match="m > 12"):
            solve_qp_scipy(inst)

    def test_solve_optimal_dispatch(self, rng):
        inst = make_random_instance(4, rng)
        a = solve_optimal(inst, method="cd").total_cost()
        b = solve_optimal(inst, method="auto").total_cost()
        c = solve_optimal(inst, method="fista").total_cost()
        d = solve_optimal(inst, method="qp").total_cost()
        assert a == b
        assert a == pytest.approx(c, rel=1e-5)
        assert a == pytest.approx(d, rel=1e-5)
        with pytest.raises(ValueError):
            solve_optimal(inst, method="nope")


class TestOptimalityConditions:
    def test_kkt_at_cd_optimum(self, rng):
        """At the optimum every owner's active destinations share the
        minimum marginal cost l_j/s_j + c_ij (first-order condition)."""
        inst = make_random_instance(8, rng)
        opt = solve_coordinate_descent(inst)
        grad = cost_gradient(inst, opt.R)
        for i in range(inst.m):
            if inst.loads[i] <= 0:
                continue
            active = opt.R[i] > 1e-7 * inst.loads[i]
            lam = grad[i][active]
            assert lam.max() - lam.min() < 1e-5 * max(1.0, lam.max())
            assert np.all(grad[i][~active] >= lam.max() - 1e-5 * max(1.0, lam.max()))

    def test_optimum_beats_initial_and_random(self, rng):
        from ..conftest import random_state

        inst = make_random_instance(9, rng)
        opt_cost = solve_coordinate_descent(inst).total_cost()
        from repro import AllocationState

        assert opt_cost <= AllocationState.initial(inst).total_cost() + 1e-9
        for _ in range(5):
            assert opt_cost <= random_state(inst, rng).total_cost() + 1e-9

    def test_homogeneous_equal_loads_stay_local(self):
        """With equal loads/speeds/delays, running locally is optimal: no
        communication can help."""
        inst = Instance.homogeneous(5, speed=1.0, delay=10.0, loads=50.0)
        opt = solve_coordinate_descent(inst)
        assert np.allclose(opt.R, np.diag(inst.loads), atol=1e-6)

    def test_zero_latency_balances_weighted_loads(self, rng):
        """With no latency the optimum equalizes l_j/s_j across servers."""
        m = 6
        speeds = rng.uniform(1, 5, m)
        loads = rng.uniform(10, 100, m)
        inst = Instance(speeds, loads, np.zeros((m, m)))
        opt = solve_coordinate_descent(inst)
        ratio = opt.loads / speeds
        assert ratio.max() - ratio.min() < 1e-6 * ratio.max()

    def test_infinite_latency_respected(self):
        """Servers behind an infinite latency never receive requests."""
        m = 3
        c = np.array(
            [
                [0.0, np.inf, np.inf],
                [np.inf, 0.0, 1.0],
                [np.inf, 1.0, 0.0],
            ]
        )
        inst = Instance(np.ones(m), np.array([90.0, 10.0, 10.0]), c)
        opt = solve_coordinate_descent(inst)
        assert opt.R[0, 1] == 0.0
        assert opt.R[0, 2] == 0.0
        assert opt.R[1, 0] == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 7))
def test_cd_vs_fista_property(seed, m):
    rng = np.random.default_rng(seed)
    inst = make_random_instance(m, rng)
    cd = solve_coordinate_descent(inst).total_cost()
    fi = solve_fista(inst, max_iterations=4000).total_cost()
    assert cd <= fi * (1 + 1e-4) + 1e-9
    assert fi <= cd * (1 + 1e-3) + 1e-6


def reference_coordinate_descent(inst, *, max_passes=500, tol=1e-12):
    """The cyclic row loop on the full-sort water-fill, with the load
    update written out of place; returns ΣCi at the start and after every
    pass."""
    st = AllocationState.initial(inst)
    n, s, c = inst.loads, inst.speeds, inst.latency
    costs = [st.total_cost()]
    for _ in range(max_passes):
        for i in np.flatnonzero(n > 0):
            a = c[i] + (st.loads - st.R[i]) / s
            row = reference_waterfill_unbounded(s, a, float(n[i]))
            st.loads += row - st.R[i]
            st.R[i] = row
        costs.append(st.total_cost())
        if costs[-2] - costs[-1] <= tol * max(1.0, abs(costs[-2])):
            break
    return costs


@pytest.mark.parametrize(
    ("name", "m", "max_passes"),
    [(sc.name, 24, 500) for sc in PRESETS + TRUST_PRESETS]
    + [("cdn-flashcrowd", 200, 20)],
)
def test_cd_trajectory_matches_reference(monkeypatch, name, m, max_passes):
    """Same ΣCi after every pass, and the same pass count, as the full-sort
    loop; the trust presets carry forbidden (inf) links."""
    inst = get_scenario(name).instance(m=m, seed=0)
    expected = reference_coordinate_descent(inst, max_passes=max_passes)
    costs = []
    total_cost = AllocationState.total_cost

    def recorded(state):  # solve_coordinate_descent reads ΣCi once a pass
        costs.append(total_cost(state))
        return costs[-1]

    monkeypatch.setattr(AllocationState, "total_cost", recorded)
    solve_coordinate_descent(inst, max_passes=max_passes)
    assert len(costs) == len(expected)
    np.testing.assert_allclose(costs, expected, rtol=1e-12, atol=0)
