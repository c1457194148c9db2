"""Independent computation of best uniform approximations by discrete minimax.

The discrete problem min_c max_i |f(x_i) - sum_k c_k phi_k(x_i)| is solved
through its dual: find a normalized signed measure on the grid annihilating
the basis and maximizing its pairing with f.  The dual is a standard-form LP
with one column per (point, sign) pair and basis-size + 1 rows, solved by the
revised simplex in :mod:`chebydev.lp` from a feasible crash basis (k points
picked by Gaussian elimination with row pivoting, plus the worst residual of
their interpolant).  The approximant coefficients and the deviation are the
simplex multipliers of the optimal basis, and the active columns are the
residual extrema.  A level below max|f - Phi c| on the points, or a dual
objective that differs from it, raises ``LPError``.

A Remez-style exchange then closes the grid-to-continuum gap in one loop:
solve on the current points, locate the stationary points of the residual
over the continuum, adjoin each new one once, re-solve from the previous
optimal basis (it stays feasible when points are appended).  The reported
approximant is the searched iterate with the smallest continuum sup; a
closing solve on the initial grid plus the extremal points of the last and
of the best iterate gives the reported deviation.  Both the LP value (a
lower bound over any grid subset of the domain) and the refined continuum
sup of the reported residual (an upper bound for the achieved approximant)
are reported; the gap is never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .domains import BALL, Domain, SIMPLEX, SIMPLEX_FACE, SPHERE
from .lp import NOISE, LPError, simplex_solve
from .polycore import FLOAT64, Poly, PolyBatch, PolyError, monomial_exponents, read_only
from .supnorm import CACHE_SIZE, SearchPlan, adjoin, approx_grid, grid_max, sup_norm
from .symfun import monomial_symmetric, partitions_upto

BASIS_KINDS = ("full", "symmetric", "even", "even-symmetric")

# the exchange counts as stalled once the deviation moves by less than this
# and the gap has stopped shrinking
DEV_CHANGE_TOL = 1e-10
# a basis column counts as independent when its QR diagonal entry exceeds this
# fraction of its norm
INDEPENDENCE_TOL = 1e-9
# a point lies on the face x_i = 0 (or sum x = 1, or |x| = 1) within this
FACE_ACTIVE_TOL = 1e-9


@dataclass
class ApproxProblem:
    target: Poly
    degree: int                  # approximant space: all polynomials of degree <= degree
    domain: Domain
    basis: str = "full"
    grid: int = 16

    def __post_init__(self):
        if self.degree < 0:
            raise PolyError("degree must be >= 0")
        if self.grid < 1:
            raise PolyError(f"grid must be >= 1, got {self.grid}")
        if self.basis not in BASIS_KINDS:
            raise PolyError(f"unknown basis kind {self.basis!r}")
        if self.target.nvars != self.domain.nvars:
            raise PolyError(
                f"target has {self.target.nvars} variables, domain "
                f"{self.domain.label()} needs {self.domain.nvars}")


@dataclass
class ApproxResult:
    deviation: float                     # minimax value over the solved point set
    coefficients: np.ndarray             # over `basis_polys` (original coordinates)
    basis_polys: tuple
    residual_extrema: list               # (point, sign) pairs from the optimal dual
    iterations: int                      # simplex iterations (last solve)
    equioscillation_count: int = 0
    equioscillation_ok: bool = True
    deviation_lower: float | None = None  # final LP value (exchange)
    deviation_upper: float | None = None  # continuum sup of final residual
    exchange_iterations: int = 0
    gap_log: list = dataclass_field(default_factory=list)
    warning: str = ""

    def approximant(self) -> Poly:
        return _combination(self.coefficients,
                            [b.to_float64() for b in self.basis_polys])

    def residual_poly(self, target: Poly) -> Poly:
        return target.to_float64() - self.approximant()


def _combination(coeffs, basis_f: list[Poly]) -> Poly:
    """sum_k c_k phi_k over float64 basis functions, as a Poly."""
    p = Poly.zero(basis_f[0].nvars, FLOAT64)
    for c, phi in zip(coeffs, basis_f):
        p = p + float(c) * phi
    return p


# --------------------------------------------------------------------------
# bases
# --------------------------------------------------------------------------


def _graded_monomials(n: int, d: int, even: bool = False,
                      sphere_reduced: bool = False):
    mons = monomial_exponents(n, d)
    mons.sort(key=lambda e: (sum(e), e))
    if even:
        mons = [e for e in mons if all(v % 2 == 0 for v in e)]
    if sphere_reduced:
        mons = [e for e in mons if e[-1] <= 1]
    return mons


def invariant_basis(n: int, domain: Domain, kind: str = "full") -> tuple[Poly, ...]:
    """Basis of the degree-<= n approximant space on the domain, restricted by
    invariance.

    ``full``: all monomials; ``symmetric``: monomial symmetric polynomials per
    partition; ``even``: even exponents only; ``even-symmetric``: both.  On
    the sphere the monomial basis is reduced modulo |x|^2 = 1 (exponent of the
    last variable <= 1); symmetric kinds are reduced numerically by dropping
    functions dependent on a generic sphere sample.
    """
    if kind not in BASIS_KINDS:
        raise PolyError(f"unknown basis kind {kind!r}")
    d, for_sphere = domain.nvars, domain.kind == SPHERE
    if kind == "full":
        return tuple(Poly.monomial(e) for e in
                     _graded_monomials(n, d, sphere_reduced=for_sphere))
    if kind == "even":
        return tuple(Poly.monomial(e) for e in
                     _graded_monomials(n, d, even=True, sphere_reduced=for_sphere))
    parts = partitions_upto(n, d)
    if kind == "even-symmetric":
        parts = [p for p in parts if all(v % 2 == 0 for v in p)]
    basis = [monomial_symmetric(p, d) for p in parts]
    if for_sphere:   # ranked on 4k + 8 random points of the sphere
        sample = np.random.default_rng(7).normal(size=(4 * len(basis) + 8, d))
        sample /= np.linalg.norm(sample, axis=1, keepdims=True)
        keep, _ = _independent_columns(PolyBatch(basis)(sample))
        basis = [basis[i] for i in keep]
    return tuple(basis)


def _independent_columns(Phi: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy rank check: the columns independent of the kept ones before
    them (|R_jj| of a QR above INDEPENDENCE_TOL times the column's norm) and
    the R of their QR.  The first dependent column is dropped and the rest
    factorized again, from the first R, whose columns span as Phi's do."""
    keep, norms = list(range(Phi.shape[1])), np.linalg.norm(Phi, axis=0)
    R = first = np.linalg.qr(Phi, mode="r")
    while True:
        # past N columns, each column depends on the first N
        small = np.ones(len(keep), dtype=bool)
        small[:len(R)] = np.abs(np.diagonal(R)) <= INDEPENDENCE_TOL * norms[keep[:len(R)]]
        if not small.any():
            return keep, R
        del keep[int(np.argmax(small))]
        R = np.linalg.qr(first[:, keep], mode="r")


class SpanError(PolyError):
    """The basis is not closed under the affine change to box coordinates."""


class RankError(PolyError):
    """The basis functions are linearly dependent on the grid."""


def _scaled_basis(basis: tuple[Poly, ...], domain: Domain):
    """Affine conditioning: on simplex-type domains the basis is re-expressed
    in box coordinates u = 2x - 1 by Poly.compose; the exact change-of-basis
    matrix maps LP coefficients back to the original basis.  Returns (the
    scaled functions as exact Polys, M with original_coeffs = M @
    scaled_coeffs)."""
    if domain.kind not in (SIMPLEX, SIMPLEX_FACE):
        return list(basis), np.eye(len(basis))
    nvars = basis[0].nvars
    box = [2 * Poly.variable(nvars, i) - 1 for i in range(nvars)]
    scaled = [b.compose(box) for b in basis]
    # exact coordinates of each scaled function in the original basis: each
    # basis function is identified by its graded-lex-leading exponent, and the
    # expansion is verified by exact reconstruction
    index = {b.sorted_terms()[-1][0]: i for i, b in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)))
    for j, s in enumerate(scaled):
        rest = dict(s.terms)
        for i, c in ((index[key], c) for key, c in s.terms.items() if key in index):
            M[i, j] = float(c)
            for e, b in basis[i].terms.items():
                rest[e] = rest.get(e, 0) - c * b
        if any(rest.values()):
            raise SpanError("affine rescaling left the basis span")
    return scaled, M


# --------------------------------------------------------------------------
# the discrete minimax solve
# --------------------------------------------------------------------------


@dataclass
class _ProblemBasis:
    """What stays fixed while one problem is solved on growing point sets:
    basis, M, batch and grid are cached and read-only (see _family)."""
    target_f: Poly
    key: tuple                   # (target terms, degree, basis kind, domain), the caches' key
    basis: tuple[Poly, ...]      # original coordinates
    M: np.ndarray                # original coefficients = M @ scaled ones
    grid: np.ndarray             # every point set the problem is solved on starts with it
    batch: PolyBatch             # the target, then each scaled function, at a point set
    mix: np.ndarray | None       # ball and sphere: LP columns = scaled columns @ mix
    grid_target: np.ndarray      # the target on the grid
    grid_columns: np.ndarray     # the LP columns on the grid

    def columns(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The target's values and the LP columns at points, one batch call."""
        f, Phi = _split(self.batch(points))
        return f, (Phi if self.mix is None else Phi @ self.mix)


@lru_cache(maxsize=CACHE_SIZE)
def _family(degree: int, kind: str, domain: Domain) -> tuple:
    """(basis, scaled functions, M) of a basis kind and degree on a domain,
    whatever the target and the grid; _scaled_basis builds them on a miss."""
    basis = invariant_basis(degree, domain, kind)
    scaled, M = _scaled_basis(basis, domain)
    return basis, tuple(scaled), read_only(M)


@lru_cache(maxsize=CACHE_SIZE)
def _problem_batch(target: tuple, degree: int, kind: str, domain: Domain,
                   gradients: bool = False) -> PolyBatch:
    """The target (its (exponent, float64 coefficient) pairs), then each scaled
    function of its family, as float Polys: one batch of their values, or of
    their gradients."""
    polys = [Poly(domain.nvars, dict(target), FLOAT64),
             *(s.to_float64() for s in _family(degree, kind, domain)[1])]
    return PolyBatch([g for p in polys for g in p.gradient()] if gradients else polys)


def _split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A problem batch's target column and basis columns, each C-contiguous:
    a strided operand takes another BLAS or QR kernel and moves last bits."""
    return np.ascontiguousarray(values[:, 0]), np.ascontiguousarray(values[:, 1:])


def _problem_basis(prob: ApproxProblem) -> _ProblemBasis:
    """Basis, grid and LP columns; the rank check on the grid decides every
    point set of the problem, since each one contains the grid.  On the ball
    and the sphere mix = R^-1 sqrt(N), R from a QR of the grid columns, makes
    the LP columns orthogonal on the grid, each of root-mean-square 1."""
    target_f = prob.target.to_float64()
    key = (tuple(target_f.terms.items()), prob.degree, prob.basis, prob.domain)
    basis, _, M = _family(*key[1:])
    grid = approx_grid(prob.domain, prob.grid)
    batch = _problem_batch(*key)
    f, Phi = _split(batch(grid))
    keep, R = _independent_columns(Phi)
    if len(keep) != len(basis):
        dropped = next(j for j in range(len(basis)) if j not in keep)
        raise RankError(
            f"basis is rank-deficient on the grid: {basis[dropped]!r} is "
            "dependent on the preceding functions")
    mix = None
    if prob.domain.kind in (BALL, SPHERE):
        mix = np.linalg.inv(R) * math.sqrt(len(grid))
        Phi = Phi @ mix
    return _ProblemBasis(target_f=target_f, key=key, basis=basis, M=M, grid=grid,
                         batch=batch, mix=mix, grid_target=f, grid_columns=Phi)


def discrete_minimax(prob: ApproxProblem) -> ApproxResult:
    """Solve the discrete minimax problem on the domain grid by the dual LP."""
    pb = _problem_basis(prob)
    return _minimax_on(pb, pb.grid)[0]


def _crash_basis(Phi: np.ndarray, f: np.ndarray) -> list[int]:
    """A feasible basis of the dual LP (point i with sign + is column i, with
    sign - column N + i).  Gaussian elimination with row pivoting on Phi picks
    k points; the worst residual of their interpolant is the (k+1)-th.  The
    left null vector lam of those k+1 rows gives the signs, sign(lam_i r_w), and
    the weights |lam_i| / sum |lam|, so the basis matrix is nonsingular
    whenever the k rows are independent."""
    N, k = Phi.shape
    U = Phi.T.copy()   # a row per column of Phi: each step updates one row block
    free = np.ones(N, dtype=bool)
    rows = []
    for j in range(k):
        p = int(np.argmax(np.where(free, np.abs(U[j]), -1.0)))
        rows.append(p)
        free[p] = False
        U[j + 1:] -= np.outer(U[j + 1:, p], U[j] / U[j, p])
    S = Phi[rows]
    resid = f - Phi @ np.linalg.solve(S, f[rows])
    w = int(np.argmax(np.where(free, np.abs(resid), -1.0)))
    lam = np.append(-np.linalg.solve(S.T, Phi[w]), 1.0)
    negative = lam * (1.0 if resid[w] >= 0 else -1.0) < 0
    return [i + N * neg for i, neg in zip(rows + [w], negative)]


def _minimax_on(pb: _ProblemBasis, points: np.ndarray, start=None):
    """Solve the dual LP on points that start with pb.grid, from the feasible
    basis ``start`` (a crash basis if None); only the rows after the grid
    are evaluated.  The multipliers of the optimal basis are the
    coefficients and the level; its positive columns are the residual
    extrema, none when the level is 0.  Returns the result and the optimal
    basis."""
    N = len(points)
    k = len(pb.basis)
    Phi, f = pb.grid_columns, pb.grid_target
    if N > len(pb.grid):
        f_added, Phi_added = pb.columns(points[len(pb.grid):])
        Phi, f = np.vstack([Phi, Phi_added]), np.concatenate([f, f_added])
    # dual: maximize f.(u - v) s.t. Phi^T (u - v) = 0, sum(u + v) = 1, u, v >= 0
    A = np.zeros((k + 1, 2 * N))
    A[:k, :N] = Phi.T
    A[:k, N:] = -Phi.T
    A[k, :] = 1.0
    b = np.zeros(k + 1)
    b[k] = 1.0
    c = np.concatenate([f, -f])
    res = simplex_solve(A, b, c, _crash_basis(Phi, f) if start is None else start)
    y = res.multipliers[:k]
    resid = f - Phi @ y
    closure = float(np.max(np.abs(resid)))
    # beyond t, max|f - Phi c| may exceed it only by the rounding of f - Phi c;
    # a level within that rounding of 0 is 0: the target lies in the span
    rounding = NOISE * float(np.max(np.abs(f) + np.abs(Phi) @ np.abs(y)))
    t = float(res.multipliers[k]) if res.multipliers[k] > rounding else 0.0
    if closure > t * (1 + 1e-9) + rounding:
        raise LPError(f"max|f - Phi c| = {closure} on the points exceeds the level {t}")
    obj = float(res.objective)
    if abs(obj - t) > 1e-7 * max(1.0, abs(t)):
        raise LPError(f"dual objective {obj} differs from recovered t {t}")
    coeffs = pb.M @ (y if pb.mix is None else pb.mix @ y)
    extrema, count = [], 0
    if t > 0:
        extrema = [(tuple(points[col % N]), 1 if col < N else -1)
                   for col in res.basis if res.x[col] > 1e-14]
        count = int(np.sum(np.abs(np.abs(resid) - t) <= 1e-8 * max(1.0, t)))
    result = ApproxResult(deviation=t, coefficients=coeffs, basis_polys=pb.basis,
                          residual_extrema=extrema, iterations=res.iterations,
                          equioscillation_count=count,
                          equioscillation_ok=count >= k + 1)
    return result, res.basis


def _face_tangent_vectors(point: np.ndarray, domain: Domain) -> list[np.ndarray]:
    """Basis of the tangent space of the face of the domain containing the
    point in its relative interior (empty at vertices)."""
    d = len(point)
    if domain.kind == SIMPLEX:
        free = [i for i in range(d) if point[i] > FACE_ACTIVE_TOL]
        sum_active = point.sum() > 1 - FACE_ACTIVE_TOL
        if not free:
            return []
        if sum_active:
            vecs = []
            for i in free[1:]:
                v = np.zeros(d)
                v[free[0]], v[i] = 1.0, -1.0
                vecs.append(v)
            return vecs
        return [np.eye(d)[i] for i in free]
    if domain.kind == BALL:
        r2 = float(point @ point)
        if r2 < 1 - FACE_ACTIVE_TOL:
            return [np.eye(d)[i] for i in range(d)]
        return _face_tangent_vectors(point, Domain(SPHERE, d))
    # sphere: orthogonal complement of the radius direction
    x = point / np.linalg.norm(point)
    basis = []
    for i in range(d):
        v = np.eye(d)[i] - x[i] * x
        for u in basis:
            v -= (u @ v) * u
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
    return basis


def _equioscillation_fit(pb: _ProblemBasis, grads: PolyBatch, points: np.ndarray,
                         signs: np.ndarray, domain: Domain):
    """Least-squares fit of (coefficients, level) to the confluent extremal
    system: value rows f(x_e) = sum_k c_k phi_k(x_e) + sigma_e t over the
    scaled basis (without the LP's QR mix), plus tangency rows grad(f - sum c phi) . u = 0 for
    every tangent direction u of the face carrying x_e.  ``grads`` holds the
    gradient of f, then of each phi_k.

    The tangency rows matter: extremal configurations can sit inside an
    algebraic hypersurface (for the simplex families, the face sum x_i = 1),
    where value interpolation alone leaves the approximant undetermined."""
    A, rhs = _fit_system(pb, grads, points, signs, domain)
    # row equilibration: value and tangency rows live on different scales
    norms = np.maximum(np.linalg.norm(A, axis=1), 1e-300)
    sol, *_ = np.linalg.lstsq(A / norms[:, None], rhs / norms, rcond=None)
    return pb.M @ sol[:-1], float(sol[-1])


def _fit_system(pb: _ProblemBasis, grads: PolyBatch, points: np.ndarray,
                signs: np.ndarray, domain: Domain) -> tuple[np.ndarray, np.ndarray]:
    """_equioscillation_fit's rows and right-hand side: the value rows, then
    a tangency row per (point, tangent u) pair, the slopes grad . u summed
    as 0.0 + u_0 g_0 + u_1 g_1 + ... in that order."""
    V = pb.batch(points)
    G = grads(points).reshape(len(points), len(pb.basis) + 1, -1)
    tangents = [(e, u) for e, pt in enumerate(points) for u in _face_tangent_vectors(pt, domain)]
    rows = np.array([e for e, _ in tangents], dtype=np.intp)
    U = np.array([u for _, u in tangents]).reshape(len(tangents), points.shape[1])
    slopes = np.zeros((len(rows), G.shape[1]))
    for i in range(U.shape[1]):
        slopes += U[:, None, i] * G[rows, :, i]
    A = np.vstack([np.hstack([V[:, 1:], signs[:, None].astype(float)]),
                   np.hstack([slopes[:, 1:], np.zeros((len(rows), 1))])])
    return A, np.concatenate([V[:, 0], slopes[:, 0]])


def _fit_decided(fit, rep, domain: Domain, resolution: int) -> bool:
    """True when the fit's sup reaches rep.value less rounding (NOISE
    relative), so searching it cannot give a sup that wins (one below that
    level): |fit| at a critical point of rep's search bounds the fit's
    continuum sup from below, and its maximum on the grid that its own
    search samples bounds that search from below."""
    level = rep.value * (1 - NOISE)
    return (any(abs(fit.eval(pt)) >= level for pt, _ in rep.critical_points)
            or grid_max(fit, domain, resolution) >= level)


def _near_extremal(rep, resid, level: float, rel: float) -> tuple[np.ndarray, np.ndarray]:
    """(points, values) arrays: the residual's critical points with |value|
    >= (1 - rel) * level, then the argmax of its sup-norm search."""
    points = np.array([pt for pt, _ in rep.critical_points] + [rep.argmax], dtype=float)
    values = np.array([val for _, val in rep.critical_points] + [resid.eval(rep.argmax)])
    near = np.abs(values) >= level * (1 - rel)
    near[-1] = True
    return points[near], values[near]


def remez_exchange(prob: ApproxProblem, max_iter: int = 40,
                   seed: int = 0) -> ApproxResult:
    """Exchange refinement: solve on the current point set, adjoin the
    continuum stationary points of the residual (each once), re-solve from
    the previous optimal basis.

    Each iteration also re-fits the coefficients on the refined extremal
    candidates by least squares (the LP picks the active set; the fit removes
    the coordinate noise a degenerate vertex basis leaves in the multipliers)
    and keeps the fit when its continuum sup is smaller by more than
    rounding (``NOISE`` relative: a tie between two sums of the same values
    is no gain); a fit that already reaches the current sup less that on
    the search grid or at one of the current iterate's critical points is
    not searched.
    Stops when the sandwich gap reaches rounding level, when the deviation
    has stabilized (change below ``DEV_CHANGE_TOL``) and the gap stops
    improving, when refinement yields no new points, at ``max_iter``, or
    when a re-solve raises ``LPError`` (the accumulated exchange points can
    make its bases too ill-conditioned to solve on); the last two set
    ``warning``.  The reported coefficients are those of the iterate with
    the smallest searched sup, which is the reported upper bound.  A closing
    solve on the initial grid plus the extremal points of the last and of
    the best iterate gives the reported deviation (a LOWER bound for the
    continuum problem, since the point set is a subset of the domain).
    """
    pb = _problem_basis(prob)
    grads = _problem_batch(*pb.key, gradients=True)
    search_domain = prob.domain
    if prob.domain.kind == SIMPLEX_FACE:
        search_domain = Domain(SIMPLEX, prob.domain.dimension - 1)
    search_res = max(8, prob.grid // 2)
    # every residual f - sum_k c_k phi_k is searched through one plan
    plan = SearchPlan(pb.target_f, pb.basis)

    searched = {}   # coefficient bytes -> (resid, rep): search each vector once

    def search(coeffs):
        key = np.asarray(coeffs, dtype=float).tobytes()
        if key not in searched:
            resid = plan.bind(coeffs)
            searched[key] = resid, sup_norm(resid, search_domain,
                                            resolution=search_res, seed=seed)
        return searched[key]

    points = pb.grid
    start = None
    gap_log = []
    best = None     # (sup, coefficients, resid, rep) of the smallest searched sup
    unclosed = ""
    for _ in range(max_iter):
        try:
            result, lp_basis = _minimax_on(pb, points, start)
        except LPError as err:
            if start is None:
                raise
            unclosed = f"exchange LP failed on {len(points)} points: {err}"
            break
        dev = result.deviation
        resid, rep = search(result.coefficients)
        E, values = _near_extremal(rep, resid, dev, 1e-3)
        if len(E) >= len(pb.basis) + 1:
            try:
                c2, _ = _equioscillation_fit(pb, grads, E, np.sign(values), search_domain)
                if not _fit_decided(plan.bind(c2), rep, search_domain, search_res):
                    resid2, rep2 = search(c2)
                    if rep2.value < rep.value * (1 - NOISE):
                        result.coefficients = np.asarray(c2)
                        resid, rep = resid2, rep2
            except np.linalg.LinAlgError:
                pass
        if best is None or rep.value < best[0]:
            best = (rep.value, result.coefficients, resid, rep)
        gap = rep.value - dev
        gap_log.append((dev, rep.value, gap))
        if gap <= max(1e-13, 1e-11 * dev):
            break
        # stall: deviation stable and the gap no longer shrinking
        if (len(gap_log) >= 3 and abs(dev - gap_log[-2][0]) < DEV_CHANGE_TOL
                and gap > 0.9 * gap_log[-3][2]):
            break
        grown = adjoin(points, _near_extremal(rep, resid, dev, 1e-6)[0])
        if len(grown) == len(points):
            break
        # the optimal basis stays feasible on the grown set; its minus-block
        # columns N_old + i move to N_new + i
        start = [j + (len(grown) - len(points)) * (j >= len(points)) for j in lp_basis]
        points = grown
    else:
        unclosed = f"exchange did not close the gap in {max_iter} iterations"

    # closing solve: the exchange located the extremal configuration; one LP
    # on the initial grid plus the extremal points of the last and of the
    # best iterate gives the deviation without the conditioning noise of the
    # accumulated exchange columns.  (resid, rep) is the last iterate's
    # search; the reported approximant is the best iterate's.
    upper, coefficients, best_resid, best_rep = best
    clean = adjoin(pb.grid, np.vstack([
        _near_extremal(rep, resid, result.deviation, 1e-3)[0],
        _near_extremal(best_rep, best_resid, result.deviation, 1e-3)[0]]))
    final, _ = _minimax_on(pb, clean)
    if final.deviation >= result.deviation - 1e-9 * max(1.0, result.deviation):
        result = final
    result.coefficients = coefficients
    result.warning = unclosed
    result.deviation_lower = result.deviation
    result.deviation_upper = upper
    result.exchange_iterations = len(gap_log)
    result.gap_log = gap_log
    return result


# --------------------------------------------------------------------------
# correspondence and ball checks
# --------------------------------------------------------------------------


def verify_correspondence(alpha: tuple, d: int, grid: int = 24,
                          seed: int = 0) -> dict:
    """Compare the deviation of x^alpha on the simplex (degree |alpha| - 1)
    with the deviation of x^{2 alpha} on the ball (degree 2|alpha| - 1, even
    basis).  The squaring substitution maps the ball onto the simplex, so the
    two values agree; the report carries both numbers and their difference."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d or sum(alpha) < 1:
        raise PolyError("alpha must be a d-dimensional exponent with |alpha| >= 1")
    n = sum(alpha)
    symmetric = len(set(alpha)) == 1
    simplex_prob = ApproxProblem(
        target=Poly.monomial(alpha), degree=n - 1, domain=Domain(SIMPLEX, d),
        basis="symmetric" if symmetric else "full", grid=grid)
    ball_prob = ApproxProblem(
        target=Poly.monomial(tuple(2 * a for a in alpha)), degree=2 * n - 1,
        domain=Domain(BALL, d), basis="even", grid=max(8, grid // 2))
    simplex_res = remez_exchange(simplex_prob, seed=seed)
    ball_res = remez_exchange(ball_prob, seed=seed)
    report = {
        "alpha": alpha,
        "simplex_deviation": simplex_res.deviation,
        "simplex_upper": simplex_res.deviation_upper,
        "ball_deviation": ball_res.deviation,
        "ball_upper": ball_res.deviation_upper,
        "difference": abs(simplex_res.deviation - ball_res.deviation),
    }
    if alpha == (1, 1, 1):
        candidates = {"1/72": 1 / 72, "1/72^2": 1 / 72 ** 2,
                      "2^-6 3^-2": 2 ** -6 * 3 ** -2}
        best = min(candidates, key=lambda k: abs(candidates[k] - report["ball_deviation"]))
        report["ball_value_supported"] = best
        report["candidate_values"] = candidates
    return report


def ball_mixed_monomial_check(k: int, n: int, grid: int = 10,
                              seed: int = 0) -> dict:
    """Deviation of x1^k x2^{n-k} on the 3-ball from degree n-1, against the
    two-variable value 2^{1-n}."""
    if not (1 <= k <= n - 1):
        raise PolyError("need 1 <= k <= n-1")
    if n > 4:
        raise PolyError("desk-scale check: n <= 4")
    exp = (k, n - k, 0)
    prob = ApproxProblem(target=Poly.monomial(exp), degree=n - 1,
                         domain=Domain(BALL, 3), basis="full", grid=grid)
    res = remez_exchange(prob, seed=seed)
    expected = 2.0 ** (1 - n)
    return {"k": k, "n": n, "deviation": res.deviation,
            "deviation_upper": res.deviation_upper, "expected": expected,
            "abs_error": abs(res.deviation - expected)}
