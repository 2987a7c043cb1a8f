"""Exact water-filling solver for simplex-constrained quadratic rows.

Several subproblems in the paper reduce to the same one-dimensional KKT
system.  Minimizing

    f(r) = Σ_j  r_j² / (2 s_j) + a_j r_j
    s.t.  Σ_j r_j = total,   0 ≤ r_j ≤ u_j

has the stationarity condition ``r_j / s_j + a_j = λ`` on the interior,
hence the optimum is the water level

    r_j(λ) = clip(s_j (λ − a_j), 0, u_j)

with ``λ`` chosen so that ``Σ_j r_j(λ) = total``.  Instances of this system:

* the **cooperative row best response** (block coordinate descent on
  ``ΣCi``): ``a_j = c_ij + l^{-i}_j / s_j``;
* the **selfish best response** of Section V: ``a_j = c_ij +
  l^{-i}_j / (2 s_j)``;
* the replication-capped variants of Section VII (``u_j = n_i / R``).

The solver is exact.  The unbounded solve costs ``O(m + k log k)``: an
``O(m)`` pass keeps the ``k`` offsets that can be active (the level never
exceeds the cheapest single-destination fill), and only those are sorted
and scanned.  The capped solve sorts every breakpoint, ``O(m log m)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["waterfill", "waterfill_value"]


def waterfill(
    speeds: np.ndarray,
    offsets: np.ndarray,
    total: float,
    upper: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``min Σ r_j²/(2 s_j) + a_j r_j`` over the (capped) simplex.

    Parameters
    ----------
    speeds:
        Positive curvature scales ``s_j`` (server speeds).
    offsets:
        Linear marginals ``a_j``.  Entries may be ``+inf`` to forbid a
        destination entirely (e.g. unreachable servers).
    total:
        Required sum of the solution (``n_i`` in the paper).  Must be
        non-negative and, when ``upper`` is given, at most ``Σ u_j``.
    upper:
        Optional per-coordinate caps ``u_j ≥ 0``; ``None`` means unbounded.

    Returns
    -------
    numpy.ndarray
        The unique optimizer ``r`` with ``r.sum() == total`` (up to float
        tolerance).
    """
    s = np.asarray(speeds, dtype=np.float64)
    a = np.asarray(offsets, dtype=np.float64)
    if s.shape != a.shape or s.ndim != 1:
        raise ValueError("speeds and offsets must be 1-D arrays of equal length")
    if s.size and s.min() <= 0:
        raise ValueError("speeds must be strictly positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        return np.zeros_like(s)

    if upper is None:
        return _waterfill_unbounded(s, a, total)
    u = np.asarray(upper, dtype=np.float64)
    if u.shape != s.shape:
        raise ValueError("upper must match the shape of speeds")
    if np.any(u < 0):
        raise ValueError("upper bounds must be non-negative")
    cap = u[np.isfinite(u)].sum() + (np.inf if np.any(np.isinf(u)) else 0.0)
    if total > cap * (1 + 1e-12) + 1e-9:
        raise ValueError(f"infeasible: total={total} exceeds Σ upper={cap}")
    return _waterfill_bounded(s, a, total, u)


def _waterfill_unbounded(s: np.ndarray, a: np.ndarray, total: float) -> np.ndarray:
    # Σ_j s_j (λ − a_j)⁺ = total bounds every s_j (λ − a_j) by total, so
    # the level never exceeds U = min_j (a_j + total/s_j), the cheapest
    # single-destination fill, and only offsets a_j ≤ U can be active.
    # The test is inclusive: where total/s_j underflows, U equals a_j.
    fill = total / s
    fill += a
    U = fill.min()
    # U is not finite when every fill is +inf (all destinations forbidden,
    # or total/s_j overflowed) or an offset is nan/−inf: then the
    # candidates are the finite offsets.
    cand = (a <= U if math.isfinite(U) else np.isfinite(a)).nonzero()[0]
    k = cand.size
    if k == 0:
        raise ValueError("all destinations are forbidden (offsets are inf)")
    if k > 1:
        cand = cand[np.argsort(a[cand], kind="stable")]
    a_s = a[cand].tolist()
    s_s = s[cand].tolist()
    # With the K cheapest candidates active the level is
    #   λ_K = (total + Σ_{j≤K} s_j a_j) / Σ_{j≤K} s_j,
    # and the answer is the first K whose λ_K does not pass the next
    # breakpoint a_{K+1}.  Optimal rows are short, so a scalar scan that
    # stops there is cheaper than prefix sums over all k candidates.
    s_cum = sa_cum = 0.0
    for K, (s_j, a_j) in enumerate(zip(s_s, a_s), 1):
        s_cum += s_j
        sa_cum += s_j * a_j
        level = (total + sa_cum) / s_cum
        if K == k or level <= a_s[K]:
            break
    r = np.zeros(a.shape[0])
    r[cand[:K]] = [max(0.0, s_j * (level - a_j)) for s_j, a_j in zip(s_s, a_s[:K])]
    # Renormalize away accumulated float error so Σ r == total exactly.
    ssum = r.sum()
    if ssum > 0:
        r *= total / ssum
    return r


def _waterfill_bounded(
    s: np.ndarray, a: np.ndarray, total: float, u: np.ndarray
) -> np.ndarray:
    # r_j(λ) = clip(s_j(λ − a_j), 0, u_j) is piecewise linear and
    # non-decreasing in λ with breakpoints at activation (λ = a_j) and
    # saturation (λ = a_j + u_j/s_j).  Find λ* by bisection over the sorted
    # breakpoints, then solve the linear piece exactly.
    finite = np.isfinite(a) & (u > 0)
    if not np.any(finite):
        raise ValueError("no destination can receive load")
    idx = np.flatnonzero(finite)
    a_f, s_f, u_f = a[idx], s[idx], u[idx]
    lo_bp = a_f
    hi_bp = a_f + u_f / s_f
    bps = np.unique(np.concatenate([lo_bp, hi_bp[np.isfinite(hi_bp)]]))

    def mass(lam: float) -> float:
        return float(np.minimum(u_f, np.maximum(0.0, s_f * (lam - a_f))).sum())

    lo, hi = 0, bps.shape[0] - 1
    if mass(bps[hi]) < total:
        # λ* lies beyond the last breakpoint only when some u_j = inf;
        # otherwise feasibility guaranteed total ≤ Σ u.
        inf_mask = np.isinf(hi_bp)
        base = mass(bps[hi])
        slope = s_f[inf_mask & (bps[hi] >= a_f)].sum()
        if slope <= 0:
            # Numerical edge: total ≈ Σ u.  Saturate everything.
            r_f = u_f.copy()
        else:
            lam = bps[hi] + (total - base) / slope
            r_f = np.minimum(u_f, np.maximum(0.0, s_f * (lam - a_f)))
    else:
        # Binary search for the first breakpoint with mass ≥ total.
        while lo < hi:
            mid = (lo + hi) // 2
            if mass(bps[mid]) >= total:
                hi = mid
            else:
                lo = mid + 1
        if lo == 0:
            lam_lo = bps[0] - 1.0  # mass is 0 below the first breakpoint
        else:
            lam_lo = bps[lo - 1]
        lam_hi = bps[lo]
        # On (lam_lo, lam_hi] the active (unsaturated) set is fixed.
        active = (lam_hi > lo_bp) & (lam_lo < hi_bp)
        slope = s_f[active].sum()
        base = mass(lam_lo)
        if slope <= 0:
            lam = lam_hi
        else:
            lam = lam_lo + (total - base) / slope
            lam = min(lam, lam_hi)
        r_f = np.minimum(u_f, np.maximum(0.0, s_f * (lam - a_f)))

    r = np.zeros_like(a)
    r[idx] = r_f
    ssum = r.sum()
    if ssum > 0 and abs(ssum - total) > 0:
        # Distribute residual float error over unsaturated coordinates.
        resid = total - ssum
        if resid > 0:
            room = np.where(finite, u - r, 0.0)
            room = np.where(np.isfinite(room), room, np.abs(resid))
        else:
            room = r.copy()
        pool = room.sum()
        if pool > 0:
            r += room * (resid / pool)
    return r


def waterfill_value(
    speeds: np.ndarray, offsets: np.ndarray, r: np.ndarray
) -> float:
    """Objective value ``Σ r_j²/(2 s_j) + a_j r_j`` of a candidate row."""
    s = np.asarray(speeds, dtype=np.float64)
    a = np.asarray(offsets, dtype=np.float64)
    rr = np.asarray(r, dtype=np.float64)
    mask = rr > 0
    return float((rr[mask] ** 2 / (2 * s[mask]) + a[mask] * rr[mask]).sum())
