"""Centralized solvers for the cooperative optimum (Section III).

The paper shows the problem is a convex QP (``ρᵀQρ + bᵀρ`` with
row-stochastic constraints) and hence polynomially solvable, but with an
impractical ``O(L m⁶)`` bound for off-the-shelf solvers.  This module
provides three solvers of increasing practicality:

* :func:`solve_qp_scipy` — the literal QP of Section III handed to
  ``scipy.optimize`` (SLSQP with exact gradient).  Exponentially many
  variables (``m²``), only used on small instances as the ground truth.
* :func:`solve_fista` — accelerated projected gradient on the allocation
  matrix ``R`` with per-row Euclidean projection onto the scaled simplex.
* :func:`solve_coordinate_descent` — cyclic exact block minimization; each
  row update is a closed-form water-fill on the marginal
  ``a_j = c_ij + l_j^{-i}/s_j``, which sorts only the destinations that
  can be active (an optimal row uses few servers), and writes the row and
  the load vector in place.  This is the fastest and serves as the
  reference optimum for the experiments (the paper similarly approximates
  the optimum with its distributed algorithm).

All return an :class:`~repro.core.state.AllocationState`.
"""

from __future__ import annotations

import numpy as np

from .cost import build_qp, total_cost
from .instance import Instance
from .state import AllocationState
from .waterfill import waterfill

__all__ = [
    "project_simplex",
    "solve_qp_scipy",
    "solve_fista",
    "solve_coordinate_descent",
    "solve_optimal",
]


def project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of ``y`` onto ``{x ≥ 0, Σx = total}``.

    Standard sort-based algorithm (Held–Wolfe–Crowder).  ``total = 0``
    returns the zero vector.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    k = np.arange(1, y.shape[0] + 1)
    cond = u - css / k > 0
    rho = int(np.max(np.flatnonzero(cond))) + 1
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def solve_qp_scipy(inst: Instance, *, tol: float = 1e-12) -> AllocationState:
    """Solve the exact Section III QP with scipy (small ``m`` only).

    Organizations with ``n_i = 0`` contribute nothing to the objective; for
    them the convention ``ρ_ii = 1`` is used.
    """
    from scipy.optimize import LinearConstraint, minimize

    m = inst.m
    if m > 12:
        raise ValueError(
            "solve_qp_scipy builds dense m²×m² matrices; use "
            "solve_coordinate_descent for m > 12"
        )
    Q, b, A = build_qp(inst)
    Qs = Q + Q.T  # symmetrized for the gradient

    def fun(rho: np.ndarray) -> float:
        return float(rho @ Q @ rho + b @ rho)

    def jac(rho: np.ndarray) -> np.ndarray:
        return Qs @ rho + b

    x0 = np.full(m * m, 1.0 / m)
    res = minimize(
        fun,
        x0,
        jac=jac,
        hess=lambda _rho: Qs,
        method="trust-constr",
        bounds=[(0.0, 1.0)] * (m * m),
        constraints=[LinearConstraint(A, 1.0, 1.0)],
        options={"maxiter": 3000, "gtol": 1e-12, "xtol": 1e-14},
    )
    rho = np.clip(res.x.reshape(m, m), 0.0, None)
    rho /= rho.sum(axis=1, keepdims=True)
    return AllocationState.from_fractions(inst, rho)


def solve_fista(
    inst: Instance,
    *,
    max_iterations: int = 2000,
    tol: float = 1e-10,
    state: AllocationState | None = None,
) -> AllocationState:
    """Accelerated projected gradient (FISTA) on ``F(R)``.

    The gradient is ``∇F = l_j/s_j + c_ij`` and its Lipschitz constant over
    the feasible set is ``m / min_j s_j`` (each destination column couples
    all ``m`` rows through the load).
    """
    m = inst.m
    n = inst.loads
    c = inst.latency
    s = inst.speeds
    x = (state.R if state is not None else np.diag(n)).copy()
    y = x.copy()
    t = 1.0
    step = float(np.min(s)) / m
    prev_cost = total_cost(inst, x)
    for _ in range(max_iterations):
        l = y.sum(axis=0)
        grad = (l / s)[None, :] + c
        z = y - step * grad
        x_new = np.empty_like(x)
        for i in range(m):
            x_new[i] = project_simplex(z[i], n[i])
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        y = x_new + ((t - 1) / t_new) * (x_new - x)
        x, t = x_new, t_new
        cost = total_cost(inst, x)
        if abs(prev_cost - cost) <= tol * max(1.0, abs(prev_cost)):
            break
        prev_cost = cost
    return AllocationState(inst, x, validate=False)


def solve_coordinate_descent(
    inst: Instance,
    *,
    max_passes: int = 500,
    tol: float = 1e-12,
    state: AllocationState | None = None,
) -> AllocationState:
    """Cyclic exact block minimization of ``ΣCi`` (reference optimum).

    Each pass rewrites every owning organization's row with the exact
    minimizer of ``F`` restricted to that row — a water-fill with marginal
    ``a_j = c_ij + l_j^{-i} / s_j``.  For this smooth convex objective over
    a product of simplices, cyclic exact block descent converges to the
    global optimum (Tseng 2001).
    """
    st = state.copy() if state is not None else AllocationState.initial(inst)
    s = inst.speeds
    c = inst.latency
    rows = [(i, float(n_i)) for i, n_i in enumerate(inst.loads) if n_i > 0]
    prev = st.total_cost()
    for _ in range(max_passes):
        for i, n_i in rows:
            a = c[i] + (st.loads - st.R[i]) / s
            st.set_row(i, waterfill(s, a, n_i))
        cost = st.total_cost()
        if prev - cost <= tol * max(1.0, abs(prev)):
            break
        prev = cost
    st.refresh_loads()
    return st


def solve_optimal(
    inst: Instance,
    *,
    method: str = "auto",
    tol: float = 1e-12,
) -> AllocationState:
    """Compute (a high-precision approximation of) the cooperative optimum.

    ``method`` is one of ``"auto"``, ``"cd"``, ``"fista"``, ``"qp"``.
    ``"auto"`` uses coordinate descent, the practical choice at any scale.
    """
    if method == "auto" or method == "cd":
        return solve_coordinate_descent(inst, tol=tol)
    if method == "fista":
        return solve_fista(inst, tol=tol)
    if method == "qp":
        return solve_qp_scipy(inst, tol=tol)
    raise ValueError(f"unknown method {method!r}")
