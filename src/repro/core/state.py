"""Mutable allocation state shared by all optimizers.

The state tracks the request matrix ``R`` (row ``i`` = organization ``i``'s
requests, column ``j`` = executing server), the maintained load vector and
incremental cost bookkeeping so that pairwise exchanges (Algorithm 1) and
row rewrites (best responses) are cheap.
"""

from __future__ import annotations

import numpy as np

from . import cost as _cost
from .instance import Instance

__all__ = ["AllocationState"]


class AllocationState:
    """Allocation of every organization's requests over the servers.

    The canonical construction is :meth:`initial`, in which every
    organization runs its own requests locally (``R = diag(n)``) — the
    starting point of both the distributed algorithm and the best-response
    dynamics in the paper.
    """

    __slots__ = ("inst", "R", "loads")

    def __init__(self, inst: Instance, R: np.ndarray, *, validate: bool = True):
        self.inst = inst
        self.R = np.array(R, dtype=np.float64)
        if self.R.shape != (inst.m, inst.m):
            raise ValueError(f"R must be ({inst.m}, {inst.m}), got {self.R.shape}")
        if validate:
            if np.any(self.R < -1e-9):
                raise ValueError("allocation entries must be non-negative")
            np.clip(self.R, 0.0, None, out=self.R)
            row = self.R.sum(axis=1)
            if not np.allclose(row, inst.loads, rtol=1e-9, atol=1e-6):
                raise ValueError("row sums of R must equal the initial loads n_i")
        self.loads = self.R.sum(axis=0)

    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, inst: Instance) -> "AllocationState":
        """Every organization executes its own requests locally."""
        return cls(inst, np.diag(inst.loads), validate=False)

    @classmethod
    def from_fractions(cls, inst: Instance, rho: np.ndarray) -> "AllocationState":
        """Build a state from a row-stochastic fraction matrix ``ρ``."""
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (inst.m, inst.m):
            raise ValueError("rho must be an (m, m) matrix")
        if np.any(rho < -1e-12):
            raise ValueError("fractions must be non-negative")
        if not np.allclose(rho.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("each row of rho must sum to 1")
        return cls(inst, rho * inst.loads[:, None])

    def copy(self) -> "AllocationState":
        return AllocationState(self.inst, self.R.copy(), validate=False)

    # ------------------------------------------------------------------
    # Cost accessors
    # ------------------------------------------------------------------
    def total_cost(self) -> float:
        """System objective ``ΣCi``."""
        return _cost.total_cost(self.inst, self.R, self.loads)

    def per_org_cost(self) -> np.ndarray:
        """Vector of per-organization costs ``Ci``."""
        return _cost.per_org_cost(self.inst, self.R, self.loads)

    def fractions(self) -> np.ndarray:
        """Relay-fraction matrix ``ρ`` (rows with ``n_i = 0`` map to the
        identity convention ``ρ_ii = 1``)."""
        n = self.inst.loads
        rho = np.zeros_like(self.R)
        pos = n > 0
        rho[pos] = self.R[pos] / n[pos, None]
        for i in np.flatnonzero(~pos):
            rho[i, i] = 1.0
        return rho

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def set_row(self, i: int, row: np.ndarray) -> None:
        """Replace organization ``i``'s allocation (best-response update).

        ``row`` must not be a view of ``R[i]``: the update runs in place."""
        R_i = self.R[i]
        # loads += row − R_i without a temporary: R_i − row is the exact
        # negation of row − R_i, so the loads match that update bit for bit.
        np.subtract(R_i, row, out=R_i)
        self.loads -= R_i
        R_i[...] = row

    def apply_pair_columns(
        self, i: int, j: int, col_i: np.ndarray, col_j: np.ndarray
    ) -> None:
        """Overwrite columns ``i`` and ``j`` of ``R`` (the effect of one
        Algorithm 1 exchange); per-organization totals must be preserved by
        the caller."""
        self.loads[i] += col_i.sum() - self.R[:, i].sum()
        self.loads[j] += col_j.sum() - self.R[:, j].sum()
        self.R[:, i] = col_i
        self.R[:, j] = col_j

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self, atol: float = 1e-6) -> None:
        """Raise if the state violates the model invariants."""
        if np.any(self.R < -1e-9):
            raise AssertionError("negative allocation entry")
        row = self.R.sum(axis=1)
        if not np.allclose(row, self.inst.loads, atol=atol, rtol=1e-7):
            raise AssertionError("row sums drifted from initial loads")
        if not np.allclose(self.loads, self.R.sum(axis=0), atol=atol, rtol=1e-7):
            raise AssertionError("cached load vector drifted")

    def refresh_loads(self) -> None:
        """Recompute the cached load vector from scratch (kills float drift
        after very long optimization runs)."""
        self.loads = self.R.sum(axis=0)
