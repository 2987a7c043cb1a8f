"""Unit and property tests for the water-filling kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.waterfill import _waterfill_unbounded, waterfill, waterfill_value


def reference_waterfill_unbounded(s, a, total):
    """The full-sort water-fill: every finite offset sorted, the level
    from prefix sums over all of them.  The production kernel sorts only
    the offsets that can be active and must agree with this one."""
    finite = np.isfinite(a)
    if not np.any(finite):
        raise ValueError("all destinations are forbidden (offsets are inf)")
    idx = np.flatnonzero(finite)
    a_f, s_f = a[idx], s[idx]
    order = np.argsort(a_f, kind="stable")
    a_sorted = a_f[order]
    s_sorted = s_f[order]
    lam = (total + np.cumsum(s_sorted * a_sorted)) / np.cumsum(s_sorted)
    nxt = np.append(a_sorted[1:], np.inf)
    K = int(np.argmax(lam <= nxt)) + 1  # first consistent active set
    r_sorted = np.maximum(0.0, s_sorted * (lam[K - 1] - a_sorted))
    r = np.zeros_like(a)
    r[idx[order]] = r_sorted
    ssum = r.sum()
    if ssum > 0:
        r *= total / ssum
    return r


def brute_force_check(s, a, total, r, upper=None, tol=1e-6):
    """Verify KKT conditions of a candidate solution: there is a level λ
    with r_j = clip(s_j (λ − a_j), 0, u_j) and Σ r_j = total."""
    assert np.all(r >= -tol)
    assert r.sum() == pytest.approx(total, rel=1e-9, abs=1e-6)
    # marginals of active coordinates must be equal (to λ) and no inactive
    # coordinate may have a smaller marginal.
    marg = r / s + a
    interior = r > tol
    if upper is not None:
        interior &= r < upper - tol
    if np.any(interior):
        lam = marg[interior]
        assert lam.max() - lam.min() < 1e-5
        level = float(lam.mean())
        inactive = r <= tol
        assert np.all(a[inactive] >= level - 1e-5)
        if upper is not None:
            saturated = r >= upper - tol
            assert np.all(marg[saturated] <= level + 1e-5)


class TestUnbounded:
    def test_single_destination(self):
        r = waterfill(np.array([2.0]), np.array([1.0]), 5.0)
        assert r[0] == pytest.approx(5.0)

    def test_zero_total(self):
        r = waterfill(np.ones(4), np.zeros(4), 0.0)
        assert np.all(r == 0.0)

    def test_prefers_cheap_destination(self):
        # tiny total goes entirely to the smallest offset
        r = waterfill(np.ones(3), np.array([0.0, 10.0, 20.0]), 1.0)
        assert r[0] == pytest.approx(1.0)
        assert r[1] == r[2] == 0.0

    def test_equal_offsets_split_by_speed(self):
        s = np.array([1.0, 3.0])
        r = waterfill(s, np.zeros(2), 8.0)
        # equal marginals r_j/s_j => proportional to speed
        assert r[0] == pytest.approx(2.0)
        assert r[1] == pytest.approx(6.0)

    def test_infinite_offset_excluded(self):
        a = np.array([0.0, np.inf, 1.0])
        r = waterfill(np.ones(3), a, 10.0)
        assert r[1] == 0.0
        assert r.sum() == pytest.approx(10.0)

    def test_all_infinite_raises(self):
        with pytest.raises(ValueError, match="forbidden"):
            waterfill(np.ones(2), np.full(2, np.inf), 1.0)

    def test_negative_total_raises(self):
        with pytest.raises(ValueError):
            waterfill(np.ones(2), np.zeros(2), -1.0)

    def test_matches_scipy_on_random_instance(self):
        from scipy.optimize import LinearConstraint, minimize

        rng = np.random.default_rng(0)
        m = 6
        s = rng.uniform(0.5, 5.0, m)
        a = rng.uniform(0.0, 10.0, m)
        total = 20.0
        r = waterfill(s, a, total)
        res = minimize(
            lambda x: (x**2 / (2 * s) + a * x).sum(),
            np.full(m, total / m),
            jac=lambda x: x / s + a,
            bounds=[(0, None)] * m,
            constraints=[LinearConstraint(np.ones((1, m)), total, total)],
            method="SLSQP",
        )
        assert waterfill_value(s, a, r) <= res.fun + 1e-6
        assert np.allclose(r, res.x, atol=1e-4)


class TestBounded:
    def test_caps_respected(self):
        u = np.array([1.0, 2.0, 3.0])
        r = waterfill(np.ones(3), np.zeros(3), 5.0, upper=u)
        assert np.all(r <= u + 1e-9)
        assert r.sum() == pytest.approx(5.0)

    def test_exactly_full(self):
        u = np.array([1.0, 2.0])
        r = waterfill(np.ones(2), np.array([0.0, 5.0]), 3.0, upper=u)
        assert np.allclose(r, u)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            waterfill(np.ones(2), np.zeros(2), 5.0, upper=np.array([1.0, 2.0]))

    def test_cheap_destination_saturates_first(self):
        u = np.array([1.0, 10.0])
        r = waterfill(np.ones(2), np.array([0.0, 3.0]), 2.0, upper=u)
        assert r[0] == pytest.approx(1.0)
        assert r[1] == pytest.approx(1.0)

    def test_infinite_upper_equals_unbounded(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(1, 5, 5)
        a = rng.uniform(0, 5, 5)
        r1 = waterfill(s, a, 12.0)
        r2 = waterfill(s, a, 12.0, upper=np.full(5, np.inf))
        assert np.allclose(r1, r2, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=1, max_value=12),
)
def test_waterfill_kkt_property(data, m):
    """Property: the solution always satisfies the KKT system."""
    s = np.array(
        data.draw(
            st.lists(
                st.floats(0.1, 10.0), min_size=m, max_size=m
            )
        )
    )
    a = np.array(
        data.draw(
            st.lists(
                st.floats(0.0, 100.0), min_size=m, max_size=m
            )
        )
    )
    total = data.draw(st.floats(0.0, 1000.0))
    r = waterfill(s, a, total)
    brute_force_check(s, a, total, r)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(min_value=1, max_value=10))
def test_bounded_waterfill_kkt_property(data, m):
    s = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    a = np.array(data.draw(st.lists(st.floats(0.0, 50.0), min_size=m, max_size=m)))
    u = np.array(data.draw(st.lists(st.floats(0.1, 20.0), min_size=m, max_size=m)))
    frac = data.draw(st.floats(0.0, 1.0))
    total = float(u.sum() * frac)
    r = waterfill(s, a, total, upper=u)
    assert np.all(r <= u + 1e-6)
    brute_force_check(s, a, total, r, upper=u)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(min_value=2, max_value=8))
def test_waterfill_is_optimal_vs_random_feasible(data, m):
    """Property: no random feasible point beats the water-fill."""
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    s = rng.uniform(0.2, 5.0, m)
    a = rng.uniform(0.0, 20.0, m)
    total = float(rng.uniform(0.1, 100.0))
    r = waterfill(s, a, total)
    best = waterfill_value(s, a, r)
    for _ in range(10):
        x = rng.dirichlet(np.ones(m)) * total
        assert best <= waterfill_value(s, a, x) + 1e-6 * max(1.0, abs(best))


#: Per-entry agreement with the full-sort reference, in units of ``total``.
REFERENCE_TOL = 1e-12

_offset = st.one_of(
    st.floats(0.0, 100.0),
    st.sampled_from([0.0, 1.0, 7.5, 7.5, np.inf]),  # ties and forbidden links
)
_total = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
    st.floats(0.0, 1000.0),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), m=st.integers(min_value=1, max_value=12))
def test_kernel_matches_full_sort_reference(data, m):
    """Sorting only the candidates a_j ≤ min_j (a_j + total/s_j) gives the
    full-sort answer: tied, ``+inf``, zero and subnormal inputs included."""
    s = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    a = np.array(data.draw(st.lists(_offset, min_size=m, max_size=m)))
    if not np.isfinite(a).any():
        a[data.draw(st.integers(0, m - 1))] = data.draw(st.floats(0.0, 100.0))
    total = data.draw(_total)
    r = _waterfill_unbounded(s, a, total)
    ref = reference_waterfill_unbounded(s, a, total)
    assert np.all(np.abs(r - ref) <= REFERENCE_TOL * total)
    assert np.all(r[np.isinf(a)] == 0.0)


@pytest.mark.parametrize("total", [0.0, 5e-324, 1e-310, 3.0])
@pytest.mark.parametrize(
    ("s", "a"),
    [([0.5], [3.0]), ([1.0, 2.0, 3.0, 4.0], [np.inf, 4.0, np.inf, np.inf])],
    ids=["m=1", "one-finite"],
)
def test_kernel_edge_cases_match_reference(s, a, total):
    s, a = np.array(s), np.array(a)
    r = _waterfill_unbounded(s, a, total)
    assert np.array_equal(r, reference_waterfill_unbounded(s, a, total))
