"""The distributed Min-Error (MinE) algorithm — Algorithm 2 of the paper.

Each server ``id`` repeatedly (i) evaluates the exact improvement of
``ΣCi`` achievable by a pairwise exchange (Algorithm 1) with every candidate
partner ``j``, (ii) picks ``partner = argmax_j impr(id, j)`` and (iii)
executes the exchange.  One *iteration* (a :meth:`MinEOptimizer.sweep`)
lets every server act once, in random order, matching Section VI-B.

Partner evaluation is the hot loop.  Three strategies are provided:

``exact``
    The faithful ``argmax_j impr(id, j)``, evaluated for *all* partners at
    once with a fully vectorized batch version of the Algorithm 1 closed
    form (rows restricted to organizations that own load).  ``O(h·m log m)``
    per server where ``h`` is the number of load-owning organizations.

``screened``
    A cheap ``O(m)`` load-imbalance score pre-selects ``screen_width``
    candidates; the exact improvement is evaluated only on those.  This is
    a deviation from the paper ablated in ``benchmarks/``; with the default
    width it selects the same partners as ``exact`` in virtually every step.

``auto`` (default)
    ``exact`` when the owner count times ``m`` is small enough, otherwise
    ``screened``.

The optimizer can also run against *stale* load views produced by the
gossip layer (:mod:`repro.gossip`) and can periodically remove negative
cycles with the min-cost-flow reduction of the appendix
(:mod:`repro.flow`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .instance import Instance
from .state import AllocationState
from .transfer import PairExchange, calc_best_transfer

__all__ = [
    "MinEOptimizer",
    "SweepStats",
    "ConvergenceTrace",
    "KernelStats",
    "CandidateTransfers",
    "batch_exchange_stats",
    "batch_best_transfers",
    "best_partner_exact",
    "best_partner_screened",
    "screen_candidates",
    "propose_partner",
    "apply_pair_exchange",
    "static_caches_enabled",
    "EXACT_BUDGET",
]

#: ``strategy="auto"`` evaluates partners exactly while ``h · m`` (owner
#: count times fleet size) stays below this, and switches to the O(m)
#: screening pass beyond it — shared by :class:`MinEOptimizer` and
#: :func:`propose_partner` so the lock-step and event-driven planes make
#: the same choice.
EXACT_BUDGET = 400_000


@dataclass
class SweepStats:
    """Diagnostics for one full iteration of the distributed algorithm."""

    iteration: int
    cost_before: float
    cost_after: float
    total_moved: float
    exchanges: int

    @property
    def improvement(self) -> float:
        return self.cost_before - self.cost_after


@dataclass
class ConvergenceTrace:
    """Cost trajectory of a full optimization run."""

    costs: list[float] = field(default_factory=list)
    sweeps: list[SweepStats] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.sweeps)

    def relative_errors(self, optimum: float) -> np.ndarray:
        """Per-iteration relative error ``(ΣCi − ΣCi*) / ΣCi*``."""
        c = np.asarray(self.costs, dtype=np.float64)
        if optimum <= 0:
            return np.zeros_like(c)
        return (c - optimum) / optimum


def _safe_dot_scalar(x: np.ndarray, cost: np.ndarray) -> float:
    """``Σ x_k c_k`` with the convention ``0 · inf = 0``."""
    mask = x != 0
    return float(x[mask] @ cost[mask])


def _rowsum(x: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Row-wise ``Σ_k x_k c_k`` with the convention ``0 · inf = 0``
    (forbidden links carrying no load cost nothing)."""
    with np.errstate(invalid="ignore"):
        prod = x * cost
    prod[x == 0.0] = 0.0
    return prod.sum(axis=1)


@dataclass
class KernelStats:
    """Dispatch counters of the Algorithm 1 transfer kernels.

    ``kernel_calls`` counts closed-form kernel dispatches and
    ``kernel_candidates`` the candidate partners evaluated across them,
    so ``kernel_candidates / kernel_calls`` is the batching factor — the
    number of per-pair :func:`repro.core.transfer.calc_best_transfer`
    dispatches each call replaces.
    """

    kernel_calls: int = 0
    kernel_candidates: int = 0


def batch_exchange_stats(
    inst: Instance,
    R: np.ndarray,
    i: int,
    owners: np.ndarray,
    loads: np.ndarray | None = None,
    *,
    compute_moved: bool = True,
    rt_full: np.ndarray | None = None,
    ct_full: np.ndarray | None = None,
    static_cache: dict[int, tuple] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate Algorithm 1 for server ``i`` against *every* candidate
    partner simultaneously (batched closed form).

    Returns ``(impr, moved)`` — per-candidate exact ``ΣCi`` improvement and
    total volume of requests that would change servers.  ``owners``
    restricts the per-organization computation to rows that can hold load
    (``n_k > 0``); all other rows of ``R`` are identically zero.

    ``static_cache`` may hold, per server, every input that does not
    depend on ``R`` or ``loads`` — the argsort of the latency difference
    matrix, the differences in sorted order, the per-server latency
    column and the closed form's load-independent factors — plus the
    sliced latency matrix shared by all servers.  They depend only on
    the static latencies, so :class:`MinEOptimizer` and the event-driven
    agents reuse them across calls, which roughly halves the per-call
    numpy work.  ``compute_moved=False`` skips the transfer-volume
    output (partner selection only needs ``impr``).  A cached sort is the
    unstable one of partner selection, so ``moved`` matches
    :func:`~repro.core.transfer.calc_best_transfer` on tied latency
    differences only when computed without ``static_cache``.
    """
    s = inst.speeds
    c = inst.latency
    s_i = float(s[i])
    m = inst.m
    l = R.sum(axis=0) if loads is None else loads
    full = owners.shape[0] == m

    # Transposed (m, h) layout — row j = candidate partner, column k =
    # owning org — so that the sorts, prefix sums and reductions all run
    # along contiguous memory.
    if rt_full is None:
        rt_full = R.T  # strided view; pass a contiguous copy to go faster
    if ct_full is None:
        ct_full = c.T
    if full:
        Ri = np.ascontiguousarray(rt_full[i])
        Rt = rt_full
    else:
        Ri = np.ascontiguousarray(rt_full[i, owners])
        Rt = np.ascontiguousarray(rt_full[:, owners])

    h = owners.shape[0]
    # Server-independent statics (the sliced latency matrix and the two
    # index grids) are shared under key -1 — only the per-server pieces
    # (latency row, its sort, B·d_s) multiply by m.
    shared = static_cache.get(-1) if static_cache is not None else None
    if shared is not None:
        Ct, rows_idx, cols_idx = shared
    else:
        rows_idx = np.arange(m)[:, None]
        cols_idx = np.arange(h)[None, :]
        Ct = ct_full if full else np.ascontiguousarray(ct_full[:, owners])
        if static_cache is not None:
            static_cache[-1] = (Ct, rows_idx, cols_idx)
    cached = static_cache.get(i) if static_cache is not None else None
    if cached is not None:
        c_owners_i, order, d_s, A_ratio, B, Bd = cached
    else:
        if full:
            c_owners_i = np.ascontiguousarray(ct_full[i])
        else:
            c_owners_i = np.ascontiguousarray(ct_full[i, owners])
        if inst.has_inf_latency:
            with np.errstate(invalid="ignore"):
                D = Ct - c_owners_i[None, :]  # d_k per candidate row
            # inf − inf → owner reaches neither server; it holds nothing at
            # either, so any immovable (+inf) difference is correct.
            D[np.isnan(D)] = np.inf
        else:
            D = Ct - c_owners_i[None, :]  # d_k per candidate row
        # Tied differences reorder owners of equal cost: the improvement is
        # the same either way, the split of the transfer among them is not.
        # ``moved`` therefore sorts stably, like calc_best_transfer; partner
        # selection keeps the default sort, about 4x cheaper at m = 200.
        order = np.argsort(D, axis=1, kind="stable" if compute_moved else None)
        if static_cache is not None:
            order = order.astype(np.int32, copy=False)  # halves the cache
        d_s = D[rows_idx, order]
        # Load-independent precomputes of the closed form: A = A_ratio·L,
        # B·d_s, and the per-column rank grid for the transfer cut-off.
        A_ratio = s / (s_i + s)
        B = s_i * s / (s_i + s)
        Bd = B[:, None] * d_s
        if static_cache is not None:
            static_cache[i] = (c_owners_i, order, d_s, A_ratio, B, Bd)

    Pool = Rt + Ri[None, :]  # pooled requests per candidate row (m, h)
    L = l[i] + l  # pooled load per candidate j
    A = A_ratio * L
    r_s = Pool[rows_idx, order]
    prefix = np.cumsum(r_s, axis=1)
    key = prefix + Bd
    K = (key <= A[:, None]).sum(axis=1)  # fully-moved orgs per candidate

    t = np.where(cols_idx < K[:, None], r_s, 0.0)
    rows = np.flatnonzero(K < h)
    if rows.size:
        kp = K[rows]
        before = np.where(kp > 0, prefix[rows, np.maximum(kp - 1, 0)], 0.0)
        partial = A[rows] - B[rows] * d_s[rows, kp] - before
        t[rows, kp] = np.clip(partial, 0.0, r_s[rows, kp])

    T = t.sum(axis=1)  # load ending up on the candidate partner
    li_new = L - T
    cong_old = l[i] ** 2 / (2 * s_i) + l**2 / (2 * s)
    cong_new = li_new**2 / (2 * s_i) + T**2 / (2 * s)
    if inst.has_inf_latency:
        # Forbidden links carrying no load cost nothing (0·inf := 0);
        # direct per-term evaluation avoids inf − inf.
        ci_sorted = c_owners_i[order]
        cj_sorted = Ct[rows_idx, order]
        comm_old = _safe_dot_scalar(Ri, c_owners_i) + _rowsum(Rt, Ct)
        comm_new = _rowsum(r_s - t, ci_sorted) + _rowsum(t, cj_sorted)
    else:
        comm_old = float(Ri @ c_owners_i) + np.einsum("jk,jk->j", Rt, Ct)
        # comm_new = Σ_k (pool_k − t_k) c_ki + t_k c_kj
        #          = Σ_k pool_k c_ki + Σ_k t_k d_k   (d in sorted order)
        comm_new = Pool @ c_owners_i + np.einsum("jk,jk->j", t, d_s)

    impr = (cong_old + comm_old) - (cong_new + comm_new)
    impr[i] = -np.inf  # never pair with self

    if not compute_moved:
        return impr, np.zeros(m)
    # moved_j = Σ_k |new r_ki − old r_ki| = Σ_k |old r_kj − t_k|; t is in
    # sorted order so compare against the old partner column sorted alike.
    old_j_sorted = Rt[rows_idx, order]
    moved = np.abs(old_j_sorted - t).sum(axis=1)
    moved[i] = 0.0
    return impr, moved


class CandidateTransfers:
    """Result of one :func:`batch_best_transfers` pass.

    ``impr[p]`` is the exact ``ΣCi`` improvement of the Algorithm 1
    exchange between server ``i`` and ``cand[p]`` on the true ``R`` (the
    kernel pools the actual allocation rows, so staleness of whatever
    view *selected* the candidates never enters the improvement).  The
    per-candidate transfer vectors are retained in sorted-owner layout,
    so the winner's exchange columns come out of :meth:`exchange` with
    zero further kernel work.
    """

    __slots__ = ("i", "cand", "impr", "_norgs", "_own", "_order", "_r_s", "_t", "_ri")

    def __init__(self, i, cand, impr, norgs, own, order, r_s, t, ri):
        self.i = int(i)
        self.cand = cand      #: (n,) candidate server ids
        self.impr = impr      #: (n,) exact ΣCi improvement per candidate
        self._norgs = int(norgs)
        self._own = own       #: (h,) org rows the closed form ran over
        self._order = order   #: (n, h) per-candidate owner order (by d_k)
        self._r_s = r_s       #: (n, h) pooled requests, sorted order
        self._t = t           #: (n, h) transfer amounts, sorted order
        self._ri = ri         #: (h,) server i's old column over _own

    def best(self) -> tuple[int, int, float]:
        """``(pos, partner, impr)`` of the best candidate —
        ``(-1, -1, -inf)`` when the candidate set is empty."""
        if self.cand.size == 0:
            return -1, -1, float("-inf")
        pos = int(np.argmax(self.impr))
        return pos, int(self.cand[pos]), float(self.impr[pos])

    def exchange(self, pos: int) -> PairExchange:
        """Materialize candidate ``pos``'s exchange columns (Algorithm 1
        applied to the pair) from the batch pass — no kernel re-dispatch."""
        order = self._order[pos]
        sel = self._own[order]
        r_s = self._r_s[pos]
        t = self._t[pos]
        new_i = r_s - t
        col_i = np.zeros(self._norgs)
        col_j = np.zeros(self._norgs)
        col_i[sel] = new_i
        col_j[sel] = t
        moved = float(np.abs(new_i - self._ri[order]).sum())
        return PairExchange(
            self.i, int(self.cand[pos]), col_i, col_j,
            float(self.impr[pos]), moved,
        )


def batch_best_transfers(
    inst: Instance,
    R: np.ndarray,
    i: int,
    cand: np.ndarray,
    *,
    rt_full: np.ndarray | None = None,
    ct_full: np.ndarray | None = None,
    stats: "KernelStats | None" = None,
) -> CandidateTransfers:
    """Evaluate Algorithm 1 for server ``i`` against the candidate set
    ``cand`` in **one** closed-form ``(k, h)`` pass.

    This is the :func:`batch_exchange_stats` layout (transposed
    contiguous rows, shared sort/prefix-sum cut-off) restricted to the
    screened candidates: where the screened path used to dispatch one
    :func:`~repro.core.transfer.calc_best_transfer` per candidate
    (~``screen_width`` numpy-bound kernel calls per proposal), this is a
    single dispatch returning per-candidate ``(impr, t)`` — and the
    winner's exchange columns via :meth:`CandidateTransfers.exchange`
    with no extra kernel call.

    The pass restricts every op to the *union support* of the pooled
    columns — the allocation stays sparse, so the sort runs over
    ``h_eff ≪ m`` owners, with a stable order matching
    ``calc_best_transfer`` column-for-column.  ``rt_full`` / ``ct_full``
    may pass maintained contiguous copies of ``R.T`` and the transposed
    latency matrix, from which the candidate rows are gathered.

    ``impr`` is always exact on the true ``R`` (pooled loads come from
    the gathered rows themselves); a stale gossip view only ever enters
    the candidate *pre-selection* (:func:`screen_candidates`).
    ``stats`` (any object with ``kernel_calls`` / ``kernel_candidates``
    int attributes, e.g. :class:`KernelStats`) counts this dispatch.
    """
    s = inst.speeds
    m = inst.m
    s_i = float(s[i])
    cand = np.asarray(cand, dtype=np.intp)
    n = cand.shape[0]
    if stats is not None:
        stats.kernel_calls += 1
        stats.kernel_candidates += n
    if rt_full is None:
        rt_full = R.T
    if ct_full is None:
        ct_full = inst.latency.T
    if n == 0:
        e = np.empty(0)
        ei = np.empty(0, dtype=np.intp)
        e2 = np.empty((0, 0))
        return CandidateTransfers(
            i, cand, e, m, ei, np.empty((0, 0), dtype=np.intp), e2, e2.copy(), e
        )

    # Gather the candidate rows once, then restrict everything
    # downstream to the union support of the pooled columns — exchanges
    # keep the allocation sparse, so h_eff ≪ m and the sort is tiny.
    s_c = s[cand]
    Rc_rows = rt_full[cand]          # (n, m) contiguous row gather
    Ri_row = rt_full[i]
    lc = Rc_rows.sum(axis=1)
    li = float(Ri_row.sum())
    own = np.flatnonzero(Rc_rows.sum(axis=0) + Ri_row > 0)
    Rc = Rc_rows[:, own]
    Ri = Ri_row[own]
    c_i = np.ascontiguousarray(ct_full[i, own])
    Cc = ct_full[np.ix_(cand, own)]
    if inst.has_inf_latency:
        with np.errstate(invalid="ignore"):
            D = Cc - c_i[None, :]
        # inf − inf → owner reaches neither server; it holds nothing at
        # either, so any immovable (+inf) difference is correct.
        D[np.isnan(D)] = np.inf
    else:
        D = Cc - c_i[None, :]
    # Stable order + the same op order as calc_best_transfer keeps the
    # realized columns bitwise identical to the per-pair kernel.
    order = np.argsort(D, axis=1, kind="stable")
    d_s = np.take_along_axis(D, order, axis=1)
    B = s_i * s_c / (s_i + s_c)
    Bd = B[:, None] * d_s
    L = li + lc
    A = s_c * L / (s_i + s_c)

    h = own.shape[0]
    Pool = Rc + Ri[None, :]
    r_s = np.take_along_axis(Pool, order, axis=1)
    prefix = np.cumsum(r_s, axis=1)
    key = prefix + Bd
    K = (key <= A[:, None]).sum(axis=1)  # fully-moved owners per candidate
    t = np.where(np.arange(h)[None, :] < K[:, None], r_s, 0.0)
    rows = np.flatnonzero(K < h)
    if rows.size:
        kp = K[rows]
        before = np.where(kp > 0, prefix[rows, np.maximum(kp - 1, 0)], 0.0)
        partial = A[rows] - Bd[rows, kp] - before
        t[rows, kp] = np.clip(partial, 0.0, r_s[rows, kp])

    T = t.sum(axis=1)  # load ending up on the candidate partner
    li_new = L - T
    cong_old = li * li / (2 * s_i) + lc**2 / (2 * s_c)
    cong_new = li_new**2 / (2 * s_i) + T**2 / (2 * s_c)
    if inst.has_inf_latency:
        ci_sorted = c_i[order]
        cj_sorted = np.take_along_axis(Cc, order, axis=1)
        comm_old = _safe_dot_scalar(Ri, c_i) + _rowsum(Rc, Cc)
        comm_new = _rowsum(r_s - t, ci_sorted) + _rowsum(t, cj_sorted)
    else:
        comm_old = float(Ri @ c_i) + np.einsum("jk,jk->j", Rc, Cc)
        # comm_new = Σ_k (pool_k − t_k) c_ki + t_k c_kj
        #          = Σ_k pool_k c_ki + Σ_k t_k d_k   (d in sorted order)
        comm_new = Pool @ c_i + np.einsum("jk,jk->j", t, d_s)

    impr = (cong_old + comm_old) - (cong_new + comm_new)
    impr[cand == i] = -np.inf  # never pair with self
    return CandidateTransfers(i, cand, impr, m, own, order, r_s, t, Ri)


def best_partner_exact(
    inst: Instance,
    R: np.ndarray,
    i: int,
    owners: np.ndarray,
    loads: np.ndarray | None = None,
    rt_full: np.ndarray | None = None,
    ct_full: np.ndarray | None = None,
    static_cache: dict[int, tuple] | None = None,
    *,
    exclude=None,
    stats: "KernelStats | None" = None,
) -> tuple[int, float]:
    """Return ``(argmax_j impr(i, j), max impr)`` — Algorithm 2's partner
    choice, evaluated exactly for all candidates at once.

    ``exclude`` (an iterable of server ids) removes candidates from the
    argmax — the livesim agents shun partners whose handshakes keep
    failing."""
    if stats is not None:
        stats.kernel_calls += 1
        stats.kernel_candidates += inst.m - 1
    impr, _ = batch_exchange_stats(
        inst, R, i, owners, loads, compute_moved=False,
        rt_full=rt_full, ct_full=ct_full, static_cache=static_cache,
    )
    if exclude is not None:
        impr = impr.copy()
        impr[np.fromiter(exclude, dtype=np.intp)] = -np.inf
    j = int(np.argmax(impr))
    return j, float(impr[j])


def static_caches_enabled(m: int, h: int) -> bool:
    """Whether the per-server static caches (argsort plus sorted latency
    differences and derived matrices) fit the shared memory budget."""
    # Per (server, candidate, owner) entry the per-server cache tuple
    # holds the int32 order (4 B) and float64 d_s and Bd (8 B each); the
    # sliced latency matrix is shared across servers.  (An optimizer and
    # an agent set each hold their own caches.)
    return m * m * h * 20 <= 256 * 1024 * 1024


def screen_candidates(
    inst: Instance,
    loads: np.ndarray,
    i: int,
    *,
    screen_width: int = 16,
    screen_cache: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """The O(m) screening pass: a cheap load-imbalance score pre-selects
    ``screen_width`` candidates, plus the lowest-latency peers (load
    scores miss communication-driven exchanges — the convergence tail
    re-homes requests between near-balanced servers).

    ``screen_cache`` may persist the per-server lowest-latency
    argpartition — it depends only on the static latencies, so repeated
    proposals from the same server skip that O(m) selection.
    """
    scores = _screen_scores(inst, loads, i)
    width = min(screen_width, inst.m - 1)
    by_score = np.argpartition(scores, -width)[-width:]
    near = min(max(width // 2, 2), inst.m - 1)
    by_latency = screen_cache.get(i) if screen_cache is not None else None
    if by_latency is None:
        by_latency = np.argpartition(inst.latency[i], near)[:near]
        if screen_cache is not None:
            screen_cache[i] = by_latency
    cand = np.unique(np.concatenate([by_score, by_latency]))
    cand = cand[cand != i]
    return cand[np.isfinite(scores[cand])]


def best_partner_screened(
    inst: Instance,
    R: np.ndarray,
    i: int,
    loads: np.ndarray,
    *,
    screen_width: int = 16,
    rt_full: np.ndarray | None = None,
    ct_full: np.ndarray | None = None,
    screen_cache: dict[int, np.ndarray] | None = None,
    exclude=None,
    stats: "KernelStats | None" = None,
) -> tuple[int, float]:
    """Partner choice via the O(m) screening pass: the pre-selected
    candidates (:func:`screen_candidates`) get the exact Algorithm 1
    evaluation in **one** batched dispatch
    (:func:`batch_best_transfers`) instead of one per-pair kernel call
    each.

    Stale ``loads`` enter the *scoring* only; the improvement returned
    is the exact improvement of the chosen candidate on the true ``R``.
    ``rt_full`` / ``ct_full`` are the maintained transposes of ``R`` and
    the latency matrix, and ``screen_cache`` the per-server
    lowest-latency peers (see :func:`screen_candidates`).
    """
    cand = screen_candidates(
        inst, loads, i, screen_width=screen_width, screen_cache=screen_cache
    )
    if exclude is not None and cand.size:
        cand = cand[~np.isin(cand, np.fromiter(exclude, dtype=np.intp))]
    if cand.size == 0:
        return -1, -np.inf
    bt = batch_best_transfers(
        inst, R, i, cand, rt_full=rt_full, ct_full=ct_full, stats=stats
    )
    _, j, impr = bt.best()
    return j, impr


def propose_partner(
    inst: Instance,
    R: np.ndarray,
    i: int,
    loads: np.ndarray | None = None,
    *,
    owners: np.ndarray | None = None,
    strategy: Literal["exact", "screened", "auto"] = "auto",
    screen_width: int = 16,
    rt_full: np.ndarray | None = None,
    ct_full: np.ndarray | None = None,
    static_cache: dict[int, tuple] | None = None,
    screen_cache: dict[int, np.ndarray] | None = None,
    exclude=None,
    stats: "KernelStats | None" = None,
) -> tuple[int, float]:
    """Server ``i``'s partner proposal against a (possibly stale) load view.

    The single-exchange *selection* half of Algorithm 2, exposed for
    callers that drive servers individually — most notably the
    event-driven agents of :mod:`repro.livesim`, where each server acts
    on whatever load vector its gossip table currently holds.  Returns
    ``(partner, expected_improvement)``.

    ``strategy`` mirrors :class:`MinEOptimizer`: ``"exact"`` evaluates
    every candidate with the batched closed form (the expected
    improvement then reflects the stale view), ``"screened"`` runs the
    O(m) pre-selection plus one :func:`batch_best_transfers` dispatch
    (required at fleet scale, where the exact batch is O(h·m log m) per
    proposal), and ``"auto"`` picks by the :data:`EXACT_BUDGET` size
    threshold.  ``rt_full`` / ``ct_full`` (both strategies),
    ``static_cache`` (exact) and ``screen_cache`` (screened) are the
    optional static caches; ``stats`` counts kernel dispatches.
    """
    if strategy not in ("exact", "screened", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if owners is None:
        owners = np.flatnonzero(inst.loads > 0)
    if strategy == "auto":
        strategy = (
            "exact" if max(1, owners.size) * inst.m <= EXACT_BUDGET else "screened"
        )
    if strategy == "screened":
        view = loads if loads is not None else R.sum(axis=0)
        return best_partner_screened(
            inst, R, i, view, screen_width=screen_width, rt_full=rt_full,
            ct_full=ct_full, screen_cache=screen_cache, exclude=exclude,
            stats=stats,
        )
    return best_partner_exact(
        inst, R, i, owners, loads, rt_full, ct_full, static_cache,
        exclude=exclude, stats=stats,
    )


def apply_pair_exchange(
    state: AllocationState,
    i: int,
    j: int,
    *,
    min_improvement: float = 1e-9,
) -> PairExchange | None:
    """Execute Algorithm 1 between ``i`` and ``j`` on the *true* state.

    The single-exchange *execution* half of Algorithm 2: the pair is
    assumed to have synchronized (they exchange their actual columns), so
    the transfer is computed from current state regardless of how stale
    the view that selected the partner was.  Applies the exchange only if
    the exact improvement exceeds ``min_improvement``; returns the applied
    :class:`PairExchange` or ``None``.
    """
    ex = calc_best_transfer(state.inst, state.R, i, j)
    if ex.improvement <= min_improvement:
        return None
    state.apply_pair_columns(i, j, ex.col_i, ex.col_j)
    return ex


def _screen_scores(
    inst: Instance, loads: np.ndarray, i: int
) -> np.ndarray:
    """O(m) optimistic-minus-penalty partner score: congestion gain of a
    perfect two-server balance minus a latency proxy for the moved volume."""
    s = inst.speeds
    s_i = s[i]
    l = loads
    L = l[i] + l
    cong_now = l[i] ** 2 / (2 * s_i) + l**2 / (2 * s)
    cong_best = L**2 / (2 * (s_i + s))
    li_star = s_i * L / (s_i + s)
    moved = np.abs(l[i] - li_star)
    score = (cong_now - cong_best) - inst.latency[i] * moved
    score[i] = -np.inf
    return score


class MinEOptimizer:
    """Iterative distributed optimizer (Algorithms 1 + 2).

    Parameters
    ----------
    state:
        The allocation to optimize in place.
    rng:
        Randomness source for the per-iteration server order.
    strategy:
        ``"exact"``, ``"screened"`` or ``"auto"`` (see module docstring).
    screen_width:
        Number of candidates kept by the screening pass.
    min_improvement:
        Exchanges improving ``ΣCi`` by less than this are skipped.
    load_view:
        Optional callable ``load_view(server) -> np.ndarray`` returning the
        (possibly stale) load vector that server uses to *choose* its
        partner.  The exchange itself always uses true state, modelling the
        pair synchronizing when they talk.
    cycle_removal_every:
        If set, run the appendix's negative-cycle removal (min-cost flow)
        after every that many sweeps.
    snapshot_partner_selection:
        When true, every server in a sweep chooses its partner from the
        load vector *as of the sweep's start* — modelling a synchronous
        distributed round in which information propagates once per
        iteration (exchanges themselves stay exact).
    """

    def __init__(
        self,
        state: AllocationState,
        *,
        rng: np.random.Generator | int | None = None,
        strategy: Literal["exact", "screened", "auto"] = "auto",
        screen_width: int = 16,
        min_improvement: float = 1e-9,
        load_view: Callable[[int], np.ndarray] | None = None,
        cycle_removal_every: int | None = None,
        snapshot_partner_selection: bool = False,
    ):
        self.state = state
        self.rng = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        if strategy not in ("exact", "screened", "auto"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if screen_width < 1:
            raise ValueError(f"screen_width must be >= 1, got {screen_width}")
        self.strategy = strategy
        self.screen_width = int(screen_width)
        self.min_improvement = float(min_improvement)
        self.load_view = load_view
        self.cycle_removal_every = cycle_removal_every
        self.snapshot_partner_selection = snapshot_partner_selection
        self.owners = np.flatnonzero(state.inst.loads > 0)
        self._iteration = 0
        self._snapshot_loads: np.ndarray | None = None
        # The argsort of the latency-difference matrix per server (and
        # the derived sorted difference rows) depend only on the static
        # latencies; cache them across sweeps when the total footprint
        # stays modest.
        m = state.inst.m
        h = max(1, self.owners.size)
        self._static_cache = {} if static_caches_enabled(m, h) else None
        # Per-server nearest-peer lists for the screening pass (static:
        # latency only), and dispatch counters for the transfer kernels.
        self._screen_cache: dict[int, np.ndarray] = {}
        self.kernel_stats = KernelStats()
        # Contiguous transposes: the batch kernel reads along candidate
        # rows, so both R and the latency matrix are kept transposed.
        self._Ct = np.ascontiguousarray(state.inst.latency.T)
        self._Rt = np.ascontiguousarray(state.R.T)

    # ------------------------------------------------------------------
    def _effective_strategy(self) -> str:
        if self.strategy != "auto":
            return self.strategy
        # Exact batch evaluation is O(h·m log m) per server and O(h·m²·log m)
        # per sweep; fall back to screening when that gets large.
        h = max(1, self.owners.size)
        return "exact" if h * self.state.inst.m <= EXACT_BUDGET else "screened"

    def _selection_loads(self, i: int) -> np.ndarray:
        """The (possibly stale) load vector server ``i`` selects from."""
        if self.load_view is not None:
            return self.load_view(i)
        if self._snapshot_loads is not None:
            return self._snapshot_loads
        return self.state.loads

    def _screened_best(self, i: int, loads: np.ndarray) -> CandidateTransfers:
        """Screen + evaluate all of ``i``'s candidates in one kernel pass."""
        cand = screen_candidates(
            self.state.inst, loads, i,
            screen_width=self.screen_width, screen_cache=self._screen_cache,
        )
        return batch_best_transfers(
            self.state.inst, self.state.R, i, cand,
            rt_full=self._Rt, ct_full=self._Ct, stats=self.kernel_stats,
        )

    def best_partner(self, i: int) -> tuple[int, float]:
        """Partner choice of Algorithm 2 for server ``i``."""
        inst = self.state.inst
        loads = self._selection_loads(i)
        if self._effective_strategy() == "exact":
            return best_partner_exact(
                inst, self.state.R, i, self.owners, loads,
                self._Rt, self._Ct, self._static_cache,
                stats=self.kernel_stats,
            )
        _, j, impr = self._screened_best(i, loads).best()
        return j, impr

    def step(self, i: int) -> PairExchange | None:
        """Algorithm 2 for a single server; returns the applied exchange."""
        if self._effective_strategy() == "exact":
            j, impr = self.best_partner(i)
            if j < 0 or impr <= self.min_improvement:
                return None
            ex = apply_pair_exchange(
                self.state, i, j, min_improvement=self.min_improvement
            )
            if ex is None:
                return None
            self._Rt[i] = ex.col_i
            self._Rt[j] = ex.col_j
            return ex
        # Screened: the winner's exchange columns come straight out of the
        # same batched pass — staleness only affects candidate selection
        # (the improvement itself is computed on true R), so the columns
        # can be applied without a second kernel dispatch.
        bt = self._screened_best(i, self._selection_loads(i))
        pos, j, impr = bt.best()
        if j < 0 or impr <= self.min_improvement:
            return None
        ex = bt.exchange(pos)
        self.state.apply_pair_columns(i, j, ex.col_i, ex.col_j)
        self._Rt[i] = ex.col_i
        self._Rt[j] = ex.col_j
        return ex

    def sweep(self, *, max_exchanges: int | None = None) -> SweepStats:
        """One iteration: every server acts once, in random order.

        ``max_exchanges`` truncates the iteration once that many
        exchanges have applied — the hard per-sweep cap behind
        exchange-budgeted incremental re-solves
        (:func:`repro.core.dynamic.reoptimize`).  The server order is
        drawn identically either way, so a truncated sweep is a prefix
        of the unbounded one.
        """
        cost_before = self.state.total_cost()
        order = self.rng.permutation(self.state.inst.m)
        self._snapshot_loads = (
            self.state.loads.copy() if self.snapshot_partner_selection else None
        )
        moved = 0.0
        exchanges = 0
        for i in order:
            if max_exchanges is not None and exchanges >= max_exchanges:
                break
            ex = self.step(int(i))
            if ex is not None:
                moved += ex.moved
                exchanges += 1
        self._snapshot_loads = None
        self._iteration += 1
        if (
            self.cycle_removal_every is not None
            and self._iteration % self.cycle_removal_every == 0
        ):
            from ..flow.transportation import remove_negative_cycles

            remove_negative_cycles(self.state)
            self._Rt = np.ascontiguousarray(self.state.R.T)
        self.state.refresh_loads()
        return SweepStats(
            iteration=self._iteration,
            cost_before=cost_before,
            cost_after=self.state.total_cost(),
            total_moved=moved,
            exchanges=exchanges,
        )

    def run(
        self,
        *,
        max_iterations: int = 100,
        optimum: float | None = None,
        rel_tol: float | None = None,
        stall_tol: float = 1e-10,
    ) -> ConvergenceTrace:
        """Iterate until the relative error versus ``optimum`` drops below
        ``rel_tol``, the improvement stalls, or ``max_iterations`` is hit.

        Returns the full cost trajectory (``costs[0]`` is the initial cost,
        ``costs[k]`` the cost after iteration ``k``), mirroring Figure 2.
        """
        trace = ConvergenceTrace()
        trace.costs.append(self.state.total_cost())
        for _ in range(max_iterations):
            stats = self.sweep()
            trace.sweeps.append(stats)
            trace.costs.append(stats.cost_after)
            if optimum is not None and rel_tol is not None:
                denom = optimum if optimum > 0 else 1.0
                if (stats.cost_after - optimum) / denom <= rel_tol:
                    trace.converged = True
                    break
            if stats.improvement <= stall_tol * max(1.0, stats.cost_before):
                trace.converged = optimum is None or rel_tol is None
                break
        return trace
