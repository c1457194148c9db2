"""Revised simplex solver for standard-form linear programs.

Solves max c.x subject to A x = b, x >= 0.  The solver keeps an explicit
inverse of the basis matrix, updates it by one rank-one step per pivot and
refactorizes it from the original columns of A every ``REFACTOR_EVERY``
pivots, so roundoff cannot pile up over a long run.  Pricing is one product
y.A per pivot, with Dantzig's rule (largest reduced cost, lowest index on
ties); the ratio test counts only entries above a tolerance relative to the
entering column and breaks ties toward the largest pivot (Harris's two
passes).  The first run of degenerate pivots raises every basic value by a
small fixed pseudo-random shift, after which pivots move the objective
again; at optimality the shift is taken out, and dual simplex pivots take
out the infeasibility it leaves, as they do any left by a starting basis or
by rounding, so the basic values of an optimal basis are feasible to
``FEAS_TOL`` plus their rounding error.  A later
degenerate run turns the ratio test lexicographic until the objective
moves, which rules out cycling whatever the pricing.  A solve whose
objective has not risen above its best value so far for ``STALLED_PIVOTS``
pivots is stalled in rounding noise and raises ``LPError``.  No external
solver is used, so runs are bit-reproducible.

Every solve starts from a feasible basis that its caller gives.  The
discrete Chebyshev duals of :mod:`chebydev.bestapprox` (k + 1 rows for k
basis functions, a column pair (+-Phi_i, 1) per point), the one LP solved
here, always have one; they are small-by-wide, and Dantzig's rule prices each
pair as |f_i - Phi_i c| - t, which is Stiefel's exchange in the revised form
of Barrodale & Phillips (ACM TOMS 495, 1975).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ratio-test entries at or below this fraction of the entering column's
# largest entry are not pivots
PIVOT_TOL = 1e-7
# reduced costs above this fraction of max|c| are improving
OPT_TOL = 1e-13
# a reduced cost counts as zero below this many units of rounding of y.A
NOISE = 64 * np.finfo(float).eps
# basic values within this of zero (relative to max|b|) count as zero: the
# slack of the ratio test's first pass, and the infeasibility threshold
FEAS_TOL = 1e-11
# a starting basis may have basic values down to -START_TOL (relative to
# max|b|); dual pivots take them out at the optimum
START_TOL = 1e-6
# consecutive degenerate pivots that count as a stall: the first stall
# shifts the basic values, a later one turns the ratio test lexicographic
STALL_AFTER = 30
# pivots in a row, primal or dual, that leave the objective at or below its
# best value so far (within its rounding level): a solve that makes this
# many has stalled in rounding noise (solves that reach optimal make at
# most a few hundred)
STALLED_PIVOTS = 2000
# size of that shift, relative to max|b|
SHIFT = 1e-7
# rounds of dual pivots that may restore the feasibility of an optimal basis
MAX_RESTORES = 3
# pivots between refactorizations of the basis inverse
REFACTOR_EVERY = 50


class LPError(RuntimeError):
    pass


@dataclass
class LPResult:
    objective: float
    x: np.ndarray               # primal solution (full length n)
    basis: list[int]            # optimal basis column indices
    multipliers: np.ndarray     # y with B^T y = c_B (dual values of the rows)
    iterations: int             # pivots, primal and dual


class _Basis:
    """A basis of A x = b, its matrix B, gathered from A once (C-ordered,
    as the products with B round in that layout) and then kept by replacing
    the column that each pivot changes, B's explicit inverse and the basic
    values."""

    def __init__(self, A: np.ndarray, b: np.ndarray, cols: np.ndarray):
        self.A, self.b, self.cols = A, b, cols
        self.B = np.ascontiguousarray(A[:, cols])
        self.a_scale = float(np.abs(A).max())
        self.pivots = 0
        self.idle = 0       # pivots since the objective last rose past its best
        self.refactor()

    def multipliers(self, cost: np.ndarray) -> np.ndarray:
        """y with y B = c_B, from the inverse plus one step of iterative
        refinement, which keeps y B - c_B at rounding level even when B is
        ill-conditioned (a column equal to a basic one then prices to 0)."""
        c_b = cost[self.cols]
        y = c_b @ self.inv
        return y + (c_b - y @ self.B) @ self.inv

    def price(self, cost: np.ndarray, c_scale: float):
        """y, the reduced costs (0 on the basic columns) and the tolerance
        below which a reduced cost counts as zero: the rounding error of
        y.A, at least OPT_TOL c_scale (max|cost|)."""
        y = self.multipliers(cost)
        reduced = cost - y @ self.A
        reduced[self.cols] = 0.0
        tol = max(OPT_TOL * c_scale,
                  NOISE * (float(np.abs(y).sum()) * self.a_scale + c_scale))
        return y, reduced, tol

    def infeasible(self, feas_tol: float) -> np.ndarray:
        """Basic values below -feas_tol by more than their rounding error,
        NOISE |B^-1| (|B| |x| + |b|), which grows with the condition of B."""
        slack = NOISE * (np.abs(self.inv) @ (np.abs(self.B) @ np.abs(self.x)
                                             + np.abs(self.b)))
        return self.x + slack < -feas_tol

    def refactor(self):
        self.inv = np.linalg.inv(self.B)
        self.x = self.inv @ self.b
        self.since_refactor = 0


def _pivot(basis: _Basis, row: int, col: int, a: np.ndarray, theta: float):
    """Column ``col`` (with a = B^-1 A_col) enters at basis row ``row`` with
    step ``theta``: a rank-one update of the inverse and the basic values."""
    if basis.idle == STALLED_PIVOTS:
        raise LPError(f"no progress in {STALLED_PIVOTS} simplex pivots")
    inv = basis.inv
    basis.x -= theta * a
    basis.x[row] = theta
    inv[row] /= a[row]
    others = a.copy()
    others[row] = 0.0
    inv -= np.outer(others, inv[row])
    basis.B[:, row] = basis.A[:, col]
    basis.cols[row] = col
    basis.pivots += 1
    basis.idle += 1
    basis.since_refactor += 1
    if basis.since_refactor >= REFACTOR_EVERY:
        basis.refactor()


def _optimize(basis: _Basis, cost: np.ndarray, max_pivots: int,
              feas_tol: float):
    """Pivot until no reduced cost exceeds the tolerance and no basic value
    is infeasible.  An entering column with no ratio-test row (the LP is
    unbounded) raises ``LPError``."""
    A = basis.A
    m = A.shape[0]
    c_scale = float(np.abs(cost).max())
    b = basis.b
    shifted = False
    restores = 0
    degenerate_run = 0
    best = -np.inf
    while True:
        if degenerate_run == STALL_AFTER and not shifted:
            # the first stall: raise every basic value by a small
            # pseudo-random amount, that is, solve for b + B delta
            delta = SHIFT * max(float(np.abs(b).max()), 1.0) * \
                (1 + np.random.default_rng(0).random(m))
            basis.b = b + basis.B @ delta
            basis.refactor()
            shifted = True
            degenerate_run = 0
        lex = degenerate_run >= STALL_AFTER
        if degenerate_run == STALL_AFTER:
            reference = basis.B.copy()
        y, reduced, opt_tol = basis.price(cost, c_scale)
        objective = float(y @ basis.b)
        level = 1e-12 * max(abs(objective), c_scale)   # rounding level of the objective
        if objective > best + level:
            best, basis.idle = objective, 0
        col = int(np.argmax(reduced))
        if reduced[col] <= opt_tol:
            if basis.b is not b:
                # take the shift out; the basis stays dual feasible
                basis.b = b
                basis.refactor()
            elif basis.since_refactor:
                # optimality counts only when priced on a fresh factorization
                basis.refactor()
            elif basis.infeasible(feas_tol).any():
                # dual pivots take out the infeasibility; a basis that
                # loses feasibility again at each new optimum is too
                # ill-conditioned to solve on
                if restores == MAX_RESTORES:
                    raise LPError("the optimal basis keeps losing feasibility")
                restores += 1
                _restore_feasibility(basis, cost, c_scale, feas_tol, max_pivots)
            else:
                return
            continue
        a = basis.inv @ A[:, col]
        amax = float(np.abs(a).max())
        rows = np.flatnonzero(a > PIVOT_TOL * amax)
        if rows.size == 0:
            raise LPError(f"the LP is unbounded along column {col}")
        if lex:
            # lexicographic ratio test: among the rows of least ratio, the
            # least row of B^-1 B_ref / a_r, with B_ref the basis where the
            # degenerate run began; no basis can then repeat
            ratios = np.maximum(basis.x[rows], 0.0) / a[rows]
            ties = rows[ratios <= ratios.min() + feas_tol]
            M = (basis.inv[ties] @ reference) / a[ties, None]
            for j in range(M.shape[1]):
                if len(ties) == 1:
                    break
                keep = M[:, j] <= M[:, j].min() + PIVOT_TOL * np.abs(M[:, j]).max()
                ties, M = ties[keep], M[keep]
            row = int(ties[0])
        else:
            # Harris: the largest pivot among the rows whose ratio stays
            # within the feasibility slack of the minimum
            xr = basis.x[rows]
            within = xr / a[rows] <= np.min((xr + feas_tol) / a[rows])
            row = int(rows[within][np.argmax(a[rows][within])])
        if basis.pivots >= max_pivots:
            raise LPError(f"simplex pivot limit {max_pivots} exceeded")
        theta = max(float(basis.x[row]), 0.0) / float(a[row])
        _pivot(basis, row, col, a, theta)
        # degenerate: the objective moves by no more than its rounding level
        degenerate_run = degenerate_run + 1 if theta * float(reduced[col]) <= level else 0


def _restore_feasibility(basis: _Basis, cost: np.ndarray, c_scale: float,
                         feas_tol: float, max_pivots: int):
    """Dual simplex pivots from a dual-feasible basis until no basic value
    is infeasible: the most negative infeasible one leaves.  The entering
    column is Harris's: the largest pivot among the columns whose ratio
    stays within the optimality tolerance of the least ratio over every
    column, so no reduced cost rises above that tolerance."""
    A = basis.A
    while True:
        infeasible = basis.infeasible(feas_tol)
        if not infeasible.any():
            return
        row = int(np.argmin(np.where(infeasible, basis.x, 0.0)))
        _, reduced, opt_tol = basis.price(cost, c_scale)
        # how far each reduced cost may rise before it passes the tolerance
        slack = np.maximum(opt_tol - reduced, 0.0)
        alpha = basis.inv[row] @ A
        alpha[basis.cols] = 0.0
        amax = float(np.abs(alpha).max())
        # the reduced costs that the step raises; above rounding level
        falling = np.flatnonzero(alpha < -NOISE * amax)
        cols = falling[alpha[falling] < -PIVOT_TOL * amax]
        if cols.size == 0:
            raise LPError("no dual pivot restores feasibility")
        if basis.pivots >= max_pivots:
            raise LPError(f"simplex pivot limit {max_pivots} exceeded")
        ratios = np.maximum(-reduced[cols], 0.0) / -alpha[cols]
        within = ratios <= np.min(slack[falling] / -alpha[falling])
        if within.any():
            col = int(cols[within][np.argmax(-alpha[cols][within])])
        else:
            # only a small pivot keeps every reduced cost within tolerance
            col = int(falling[np.argmin(slack[falling] / -alpha[falling])])
        a = basis.inv @ A[:, col]
        _pivot(basis, row, col, a, float(basis.x[row] / a[row]))


def simplex_solve(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                  basis) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, from ``basis``: m columns
    of A that form a feasible basis.

    A starting basis that is singular or infeasible, an unbounded LP, a run
    past the pivot limit, a stalled run, or an optimal basis that keeps
    losing feasibility raises ``LPError``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if b.shape != (A.shape[0],) or c.shape != (A.shape[1],):
        raise LPError(f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}")
    return _simplex_solve_once(A, b, c, basis)


def _simplex_solve_once(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                        start) -> LPResult:
    m, n = A.shape
    max_pivots = 1000 + 10 * (m + n)
    feas_tol = FEAS_TOL * max(float(np.abs(b).max()), 1.0)
    cols = np.array(start, dtype=int)
    if cols.shape != (m,) or len(set(cols.tolist())) != m \
            or cols.min() < 0 or cols.max() >= n:
        raise LPError(f"a starting basis needs {m} distinct columns of A")
    try:
        basis = _Basis(A, b, cols)
    except np.linalg.LinAlgError:
        raise LPError("the starting basis is singular") from None
    # the optimal basis of an earlier solve comes back feasible only to
    # within the rounding of its factorization
    if basis.x.min() < -START_TOL * max(float(np.abs(b).max()), 1.0):
        raise LPError("the starting basis is infeasible")
    _optimize(basis, c, max_pivots, feas_tol)
    # the reported point and multipliers come from a fresh factorization
    x = np.zeros(n)
    x[basis.cols] = np.maximum(np.linalg.solve(basis.B, b), 0.0)
    y = np.linalg.solve(basis.B.T, c[basis.cols])
    return LPResult(float(c @ x), x, basis.cols.tolist(), y, basis.pivots)
