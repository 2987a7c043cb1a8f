"""Pairwise optimal exchange — Algorithm 1 of the paper.

Given two servers ``i`` and ``j``, Algorithm 1 pools every request currently
executed on either server, sorts the owning organizations by
``d_k = c_kj − c_ki`` (how much cheaper it is to serve ``k`` from ``i``)
and then greedily re-balances each organization's pooled requests between
the two servers using the Lemma 1 transfer amount

    Δr'_ikj = ((s_j l_i − s_i l_j) − s_i s_j (c_kj − c_ki)) / (s_i + s_j).

Two implementations are provided:

* :func:`calc_best_transfer_reference` — a literal transcription of the
  pseudo-code (explicit loop), kept as the ground truth for tests;
* :func:`calc_best_transfer` — an ``O(h log h)`` closed form.  Writing
  ``L = l_i + l_j``, ``A = s_j L / (s_i + s_j)``, ``B = s_i s_j / (s_i +
  s_j)`` and ``T_k`` for the amount already moved to ``j`` before ``k`` is
  processed, the loop body computes ``t_k = clip(A − B d_k − T_k, 0, r_k)``.
  Along the sorted order ``A − B d_k − T_k`` is non-increasing, so the
  transfers form a full-prefix / one-partial / zero-suffix pattern that a
  prefix-sum + binary search finds directly.

Both return the new per-organization columns and the exact improvement of
``ΣCi``, without mutating the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance

__all__ = [
    "PairExchange",
    "lemma1_transfer",
    "calc_best_transfer",
    "calc_best_transfer_reference",
]


@dataclass(frozen=True)
class PairExchange:
    """Result of re-balancing servers ``i`` and ``j``.

    Attributes
    ----------
    i, j:
        The server pair.
    col_i, col_j:
        New columns ``r_·i`` and ``r_·j`` (length ``m``).
    improvement:
        Exact decrease of ``ΣCi`` achieved by applying the exchange
        (non-negative up to float error — Lemma 2).
    moved:
        Total volume of requests whose executing server changed.
    """

    i: int
    j: int
    col_i: np.ndarray
    col_j: np.ndarray
    improvement: float
    moved: float


def lemma1_transfer(
    s_i: float,
    s_j: float,
    l_i: float,
    l_j: float,
    c_ki: float,
    c_kj: float,
    r_ki: float,
) -> float:
    """Optimal amount of organization ``k``'s requests to move from server
    ``i`` to ``j`` (Lemma 1), clamped to ``[0, r_ki]``."""
    raw = ((s_j * l_i - s_i * l_j) - s_i * s_j * (c_kj - c_ki)) / (s_i + s_j)
    return max(0.0, min(r_ki, raw))


def _safe_dot(c: np.ndarray, x: np.ndarray) -> float:
    """``Σ c_k x_k`` with the convention ``inf · 0 = 0`` (forbidden links
    carrying no load cost nothing)."""
    mask = x != 0
    return float(c[mask] @ x[mask])


def _exchange_improvement(
    inst: Instance,
    i: int,
    j: int,
    old_col_i: np.ndarray,
    old_col_j: np.ndarray,
    new_col_i: np.ndarray,
    new_col_j: np.ndarray,
) -> float:
    """Exact ΣCi decrease when columns i and j are rewritten."""
    s = inst.speeds
    c = inst.latency
    li_old = old_col_i.sum()
    lj_old = old_col_j.sum()
    li_new = new_col_i.sum()
    lj_new = new_col_j.sum()
    cong_old = li_old * li_old / (2 * s[i]) + lj_old * lj_old / (2 * s[j])
    cong_new = li_new * li_new / (2 * s[i]) + lj_new * lj_new / (2 * s[j])
    if inst.has_inf_latency:
        comm_old = _safe_dot(c[:, i], old_col_i) + _safe_dot(c[:, j], old_col_j)
        comm_new = _safe_dot(c[:, i], new_col_i) + _safe_dot(c[:, j], new_col_j)
    else:
        comm_old = float(c[:, i] @ old_col_i + c[:, j] @ old_col_j)
        comm_new = float(c[:, i] @ new_col_i + c[:, j] @ new_col_j)
    return (cong_old + comm_old) - (cong_new + comm_new)


def calc_best_transfer_reference(
    inst: Instance, R: np.ndarray, i: int, j: int
) -> PairExchange:
    """Literal Algorithm 1: pool both columns on ``i``, then loop over
    organizations in ascending ``c_kj − c_ki`` applying Lemma 1."""
    if i == j:
        raise ValueError("pair exchange needs two distinct servers")
    s = inst.speeds
    c = inst.latency
    old_i = R[:, i].copy()
    old_j = R[:, j].copy()
    rki = old_i + old_j  # first loop: everything moves to i
    rkj = np.zeros_like(rki)
    l_i = float(rki.sum())
    l_j = 0.0
    with np.errstate(invalid="ignore"):
        diff = c[:, j] - c[:, i]  # inf − inf (both unreachable) → NaN,
    diff[np.isnan(diff)] = np.inf  # immovable — such orgs hold nothing here
    order = np.argsort(diff, kind="stable")
    for k in order:
        if rki[k] <= 0:
            continue
        t = lemma1_transfer(s[i], s[j], l_i, l_j, c[k, i], c[k, j], rki[k])
        if t > 0:
            rki[k] -= t
            rkj[k] += t
            l_i -= t
            l_j += t
    impr = _exchange_improvement(inst, i, j, old_i, old_j, rki, rkj)
    moved = float(np.abs(rki - old_i).sum())
    return PairExchange(i, j, rki, rkj, impr, moved)


def calc_best_transfer(
    inst: Instance, R: np.ndarray, i: int, j: int
) -> PairExchange:
    """Closed-form Algorithm 1 (see module docstring).

    Equivalent to :func:`calc_best_transfer_reference` up to float
    round-off; property-tested against it.
    """
    if i == j:
        raise ValueError("pair exchange needs two distinct servers")
    s_i = float(inst.speeds[i])
    s_j = float(inst.speeds[j])
    c = inst.latency
    old_i = R[:, i].copy()
    old_j = R[:, j].copy()
    pooled = old_i + old_j
    owners = np.flatnonzero(pooled > 0)
    if owners.size == 0:
        z = np.zeros_like(old_i)
        return PairExchange(i, j, z, z.copy(), 0.0, 0.0)

    d = c[owners, j] - c[owners, i]
    if inst.has_inf_latency:
        # inf − inf (owner can reach neither server) → such owners hold no
        # requests at either server; keep them immovable.
        d = np.where(np.isnan(d), np.inf, d)
    r = pooled[owners]
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    r_sorted = r[order]

    L = float(r.sum())
    A = s_j * L / (s_i + s_j)
    B = s_i * s_j / (s_i + s_j)

    # Full transfers happen while R_k + B d_k ≤ A where R_k is the inclusive
    # prefix sum of pooled amounts in sorted order.
    prefix = np.cumsum(r_sorted)
    key = prefix + B * d_sorted
    K = int(np.searchsorted(key, A, side="right"))  # first K entries full

    t = np.zeros_like(r_sorted)
    t[:K] = r_sorted[:K]
    if K < r_sorted.shape[0]:
        before = prefix[K - 1] if K > 0 else 0.0
        partial = A - B * d_sorted[K] - before
        t[K] = min(r_sorted[K], max(0.0, partial))

    new_i_vals = r_sorted - t
    col_i = np.zeros_like(old_i)
    col_j = np.zeros_like(old_j)
    col_i[owners[order]] = new_i_vals
    col_j[owners[order]] = t

    impr = _exchange_improvement(inst, i, j, old_i, old_j, col_i, col_j)
    moved = float(np.abs(col_i - old_i).sum())
    return PairExchange(i, j, col_i, col_j, impr, moved)
