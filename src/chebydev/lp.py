"""Dense two-phase simplex solver for standard-form linear programs.

Solves max c.x subject to A x = b, x >= 0 with a tableau simplex.  Pivoting
is deterministic: Dantzig's rule (most positive reduced cost, lowest index on
ties) with an automatic switch to Bland's anti-cycling rule after a run of
degenerate pivots, which guarantees termination.  No external solver is used,
so runs are bit-reproducible.

Problem sizes here are small-by-wide: tens of rows and up to ~10^4 columns
from discrete minimax duals.  The widest ones can be slow or fragile in a
dense tableau; a 36 x 9,690 dual has taken minutes before its perturbed retry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# pivoting tolerance on reduced costs, ratio-test columns and artificial rows
PIVOT_TOL = 1e-9
# consecutive degenerate pivots after which pricing switches to Bland's rule
BLAND_AFTER = 30


class LPError(RuntimeError):
    pass


@dataclass
class LPResult:
    status: str                 # 'optimal' | 'infeasible' | 'unbounded'
    objective: float
    x: np.ndarray               # primal solution (full length n)
    basis: list[int]            # optimal basis column indices
    multipliers: np.ndarray     # y with B^T y = c_B (dual values of the rows)
    iterations: int


def _pivot(tableau: np.ndarray, row: int, col: int):
    piv = tableau[row, col]
    tableau[row] /= piv
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    tableau -= np.outer(colvals, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _run_simplex(tableau: np.ndarray, basis: list[int],
                 ncols: int) -> tuple[str, int]:
    """Iterate to optimality on the given tableau (last row = negated reduced
    costs for maximization, last column = rhs).  Returns (status, iterations)."""
    m = tableau.shape[0] - 1
    max_iter = 2000 + 40 * (m + ncols)
    degenerate_run = 0
    it = 0
    while True:
        if it >= max_iter:
            raise LPError(f"simplex iteration limit {max_iter} exceeded")
        reduced = tableau[-1, :ncols]
        bland = degenerate_run >= BLAND_AFTER
        if bland:
            candidates = np.where(reduced < -PIVOT_TOL)[0]
            if candidates.size == 0:
                return "optimal", it
            col = int(candidates[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -PIVOT_TOL:
                return "optimal", it
        colvals = tableau[:m, col]
        rhs = np.maximum(tableau[:m, -1], 0.0)  # clip roundoff-negative rhs
        positive = colvals > PIVOT_TOL
        if not positive.any():
            return "unbounded", it
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / colvals[positive]
        best = float(ratios.min())
        ties = np.where(ratios <= best + 1e-12 * (1.0 + best))[0]
        # lowest basis-variable index among ties (Bland-compatible ratio test)
        row = int(min(ties, key=lambda r: basis[r]))
        obj_before = tableau[-1, -1]
        _pivot(tableau, row, col)
        basis[row] = col
        it += 1
        degenerate_run = degenerate_run + 1 if tableau[-1, -1] <= obj_before + PIVOT_TOL else 0


def simplex_solve(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0 (two-phase dense simplex).

    Heavily degenerate instances that exhaust the iteration limit are retried
    with a deterministic tiny right-hand-side perturbation; the final basis is
    then re-solved against the original b (reduced costs do not depend on b,
    so optimality carries over once the basis stays feasible).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if b.shape != (A.shape[0],) or c.shape != (A.shape[1],):
        raise LPError(f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}")
    try:
        return _simplex_solve_once(A, b, c)
    except LPError:
        m = A.shape[0]
        scale = max(1.0, float(np.abs(b).max()))
        eps = 1e-9 * scale * (1.0 + np.arange(1, m + 1) / m)
        pert = _simplex_solve_once(A, b + eps, c)
        if pert.status != "optimal":
            return pert
        basis = pert.basis
        B = A[:, basis]
        if B.shape[0] != B.shape[1]:
            raise LPError("perturbation fallback hit a rank-deficient system")
        xb = np.linalg.solve(B, b)
        if xb.min() < -1e-7 * scale:
            raise LPError("perturbation fallback produced an infeasible basis")
        x = np.zeros(A.shape[1])
        x[basis] = np.maximum(xb, 0.0)
        y = np.linalg.solve(B.T, c[basis])
        return LPResult("optimal", float(c @ x), x, basis, y, pert.iterations)


def _simplex_solve_once(A: np.ndarray, b: np.ndarray,
                        c: np.ndarray) -> LPResult:
    m, n = A.shape

    # phase 1: artificial variables form the starting basis
    A1 = A.copy()
    neg = b < 0
    A1[neg] *= -1.0
    b1 = np.abs(b)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A1
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b1
    # maximize -(sum of artificials): reduced-cost row = -(sum of constraint rows)
    tableau[-1, :] = -tableau[:m, :].sum(axis=0)
    tableau[-1, n:n + m] = 0.0
    basis = list(range(n, n + m))
    status, it1 = _run_simplex(tableau, basis, n)
    if status != "optimal" or tableau[-1, -1] < -1e-7 * max(1.0, np.abs(b1).max()):
        return LPResult("infeasible", float("nan"), np.zeros(n), basis,
                        np.zeros(m), it1)

    # drive remaining artificials out of the basis; fully zero rows are redundant
    drop_rows = []
    for r in range(m):
        if basis[r] >= n:
            pivot_col = next((j for j in range(n) if abs(tableau[r, j]) > PIVOT_TOL), None)
            if pivot_col is None:
                drop_rows.append(r)
            else:
                _pivot(tableau, r, pivot_col)
                basis[r] = pivot_col
    keep = [r for r in range(m) if r not in drop_rows]
    if drop_rows:
        tableau = tableau[keep + [m], :]
        basis = [basis[r] for r in keep]
        m = len(keep)

    # phase 2: swap in the real objective
    tableau = np.hstack([tableau[:, :n], tableau[:, [-1]]])
    tableau[-1, :n] = -c
    tableau[-1, -1] = 0.0
    for r, j in enumerate(basis):
        if abs(tableau[-1, j]) > 0:
            tableau[-1, :] -= tableau[-1, j] * tableau[r, :]
    status, it2 = _run_simplex(tableau, basis, n)
    if status == "unbounded":
        return LPResult("unbounded", float("inf"), np.zeros(n), basis,
                        np.zeros(m), it1 + it2)

    x = np.zeros(n)
    for r, j in enumerate(basis):
        x[j] = tableau[r, -1]
    # multipliers of the retained rows; a row dropped as redundant gets 0
    y = np.zeros(A.shape[0])
    y[keep] = np.linalg.solve(A[np.ix_(keep, basis)].T, c[basis])
    objective = float(c @ x)
    return LPResult("optimal", objective, x, basis, y, it1 + it2)
