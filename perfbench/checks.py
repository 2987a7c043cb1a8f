"""Output checks computed apart from the program under test.

Everything here uses only numpy and the instance arrays: ΣCi is
recomputed from the allocation with our own expression of the paper's
eq. 1, and every reference optimum is certified with a Frank–Wolfe
duality gap, so a wrong solver cannot vouch for itself.

The objective over allocations ``R`` (rows: owners, columns: servers) is

    f(R) = Σ_j l_j² / (2 s_j) + Σ_ij c_ij r_ij,     l_j = Σ_i r_ij,

convex on the product of simplices {r_i ≥ 0, Σ_j r_ij = n_i}.  Its
gradient is ``g_ij = l_j / s_j + c_ij``, and for any feasible ``R``

    f* ≥ f(R) − gap(R),   gap(R) = Σ_i (Σ_j g_ij r_ij − n_i min_j g_ij),

which gives a lower bound on the true optimum made without the solver.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for two evaluations of the same ΣCi that differ
#: only in floating-point summation order.
COST_RTOL = 1e-9


class Checks:
    """Collects failed checks by label; ``ok`` while none failed."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def require(self, cond, label: str, detail: str = "") -> bool:
        if not bool(cond):
            self.errors.append(f"{label}: {detail}" if detail else label)
            return False
        return True

    @property
    def ok(self) -> bool:
        return not self.errors


def _finite_latency(inst) -> tuple[np.ndarray, np.ndarray]:
    lat = np.asarray(inst.latency, dtype=np.float64)
    finite = np.isfinite(lat)
    return np.where(finite, lat, 0.0), finite


def sigma_ci(inst, R: np.ndarray) -> float:
    """ΣCi of allocation ``R`` by eq. 1 (forbidden links carry no load —
    :func:`check_allocation` asserts that separately)."""
    c, _ = _finite_latency(inst)
    s = np.asarray(inst.speeds, dtype=np.float64)
    loads = R.sum(axis=0)
    congestion = np.dot(loads / (2.0 * s), loads)
    communication = np.einsum("ij,ij->", c, R)
    return float(congestion + communication)


def fw_gap(inst, R: np.ndarray) -> float:
    """The Frank–Wolfe duality gap of ``R`` (≥ 0 for a feasible ``R``)."""
    c, finite = _finite_latency(inst)
    s = np.asarray(inst.speeds, dtype=np.float64)
    n = np.asarray(inst.loads, dtype=np.float64)
    grad = R.sum(axis=0)[None, :] / s[None, :] + c
    linear = float(np.einsum("ij,ij->", grad, np.where(finite, R, 0.0)))
    best = np.where(finite, grad, np.inf).min(axis=1)
    owners = n > 0
    return linear - float(np.dot(n[owners], best[owners]))


def certify(inst, R_opt: np.ndarray) -> dict:
    """Certified lower bound on the optimum from a claimed optimum."""
    cost = sigma_ci(inst, R_opt)
    gap = fw_gap(inst, R_opt)
    lower = cost - max(gap, 0.0)
    return {
        "cost": cost,
        "gap": gap,
        "lower_bound": lower,
        "rel_gap": max(gap, 0.0) / cost if cost > 0 else 0.0,
    }


def rel_error(cost: float, lower_bound: float) -> float:
    return (cost - lower_bound) / lower_bound if lower_bound > 0 else 0.0


def check_allocation(checks: Checks, label: str, inst, R: np.ndarray) -> bool:
    """Rows conserve the owners' current demand, R ≥ 0 up to float dust,
    and no load sits on an infinite-latency link.  Returns whether the
    instance has such links, i.e. whether that last check ran."""
    n = np.asarray(inst.loads, dtype=np.float64)
    scale = max(float(n.max(initial=0.0)), 1.0)
    dust = 1e-9 * scale
    rows = R.sum(axis=1)
    worst = float(np.max(np.abs(rows - n) / np.maximum(n, 1.0)))
    checks.require(
        worst <= 1e-9, f"{label}: row conservation", f"max rel error {worst:.3e}"
    )
    low = float(R.min())
    checks.require(low >= -dust, f"{label}: R >= 0", f"min entry {low:.3e}")
    _, finite = _finite_latency(inst)
    if not finite.all():
        on_forbidden = float(np.abs(R[~finite]).max())
        checks.require(
            on_forbidden <= dust,
            f"{label}: load on an infinite-latency link",
            f"{on_forbidden:.3e}",
        )
    return not finite.all()


def check_cost(checks: Checks, label: str, inst, R: np.ndarray, program_cost: float) -> float:
    """Our ΣCi of ``R`` must match the cost the program reports for it."""
    ours = sigma_ci(inst, R)
    checks.require(
        abs(ours - program_cost) <= COST_RTOL * max(abs(ours), 1.0),
        f"{label}: independent ΣCi",
        f"ours {ours!r} vs program {program_cost!r}",
    )
    return ours
