"""Sup-norm estimation and verification over simplex, ball, and sphere.

The search strategy is face decomposition: every local maximum of |p| over a
compact polytope/ball domain is a stationary point of p restricted to the
affine chart of some face, so each face is searched by multi-start Newton on
the chart gradient and the results are merged.  A symmetric polynomial
(``_symmetric``: invariant under every permutation of its variables) is
searched on one Weyl chamber, the points with non-increasing coordinates:
every domain here is permutation-invariant, so each S_n orbit of grid points
and stationary points is represented there once.  Bounds are
heuristic-numeric (multi-start), not certified enclosures.  The module also
owns the grids the float engines sample (approx_grid for the minimax) and
the near-duplicate rule (DEDUP_TOL in the max norm) by which points merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement

import numpy as np
from numpy.linalg import _umath_linalg   # private: the gufuncs of np.linalg.det and solve

from .constructions import build_td
from .domains import BALL, Domain, SIMPLEX, SIMPLEX_FACE, SPHERE
from .polycore import (FLOAT64, DerivativeMap, Derivatives, MonomialTable, Poly, PolyError,
                       exponent_array, grlex_unique, read_only, restrict_affine_last,
                       restrict_zero, term_matrix)
from .symfun import partitions_upto

DEDUP_TOL = 1e-8
DEDUP_BLOCK = 128   # dedup_points compares the points this many rows at a time
ADJOIN_BLOCK = 1 << 14   # adjoin's distance tables hold at most this many floats
# the bound of each cache: grids here, families and problem batches in bestapprox
CACHE_SIZE = 64
# Newton starts per domain dimension, spread over the faces of a simplex
STARTS_PER_DIMENSION = 50


@dataclass
class SupNormReport:
    value: float
    argmax: tuple
    critical_points: list       # (point, value) pairs
    grid_value: float


# --------------------------------------------------------------------------
# deterministic samplers
# --------------------------------------------------------------------------


def _simplex_lattice(d: int, m: int) -> np.ndarray:
    """Barycentric lattice {x >= 0, sum x <= 1} with spacing 1/m."""
    return exponent_array(m, d) / m


def sample_domain(dom: Domain, resolution: int) -> np.ndarray:
    """Deterministic point grids: barycentric lattice on the simplex, filtered
    product lattice on the ball, normalized lattice directions (the axis
    points among them) on the sphere.  Grids are nested: resolution 2m
    contains m."""
    if resolution < 1:
        raise PolyError(f"resolution must be >= 1, got {resolution}")
    m = resolution
    if dom.kind in (SIMPLEX, SIMPLEX_FACE):
        return _simplex_lattice(dom.nvars, m)
    return _box_to_domain(dom, _lattice(np.arange(-m, m + 1) / m, dom.dimension))


def _box_to_domain(dom: Domain, pts: np.ndarray) -> np.ndarray:
    """The rows of a box lattice in the ball, or its nonzero rows normalized
    onto the sphere and deduplicated."""
    sq = np.einsum("ij,ij->i", pts, pts)
    if dom.kind == BALL:
        return pts[sq <= 1.0 + 1e-12]
    pts = pts[sq > 0]
    return _unique_rows(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def _chamber_grid(dom: Domain, resolution: int) -> np.ndarray:
    """The rows of sample_domain(dom, resolution) with non-increasing
    coordinates, bit for bit and in the same order, built without the rest:
    the padded partitions on the simplex, the non-increasing tuples of the
    axis on the ball and sphere (reversed into product order)."""
    if resolution < 1:
        raise PolyError(f"resolution must be >= 1, got {resolution}")
    m, d = resolution, dom.nvars
    if dom.kind in (SIMPLEX, SIMPLEX_FACE):
        rows = sorted(part + (0,) * (d - len(part)) for part in partitions_upto(m, d))
        return np.array(rows, dtype=float).reshape(-1, d) / m
    idx = np.fromiter(chain.from_iterable(combinations_with_replacement(range(2 * m + 1), d)),
                      dtype=np.intp).reshape(-1, d)
    return _box_to_domain(dom, (np.arange(m, -m - 1, -1) / m)[idx[::-1]])


def _lattice(axis: np.ndarray, d: int) -> np.ndarray:
    """Every d-tuple of axis values as the rows of a (len(axis)**d, d) array,
    in itertools.product order: the last coordinate varies fastest."""
    return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)


def _unique_rows(pts: np.ndarray) -> np.ndarray:
    """The rows of pts that differ after rounding to 1e-12, in first-seen order.
    A stable sort keeps each run of equal rows in index order, so the run's
    first row is the first seen; float != merges -0.0 with 0.0."""
    rounded = np.round(pts / 1e-12) * 1e-12
    order = np.lexsort(rounded.T)
    rows = rounded[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return pts[np.sort(order[first])]


def _sphere_marks(d: int) -> np.ndarray:
    """The points +-e_i, then every (+-1, ..., +-1) / sqrt(d), of the unit
    sphere in R^d: where the known extremal configurations sit."""
    diagonals = _lattice(np.array([1.0, -1.0]), d) / math.sqrt(d)
    return np.vstack([np.eye(d), -np.eye(d), diagonals])


def _sphere_spiral(npts: int) -> np.ndarray:
    """Deterministic golden-angle spiral on S^2."""
    i = np.arange(npts) + 0.5
    z = 1 - 2 * i / npts
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    theta = math.pi * (1 + math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


@lru_cache(maxsize=CACHE_SIZE)
def approx_grid(domain: Domain, resolution: int) -> np.ndarray:
    """Grids for minimax: the domain samplers, except that spheres combine a
    deterministic spiral (for d = 3) with the _sphere_marks, so the known
    extremal configurations lie on-grid.  Cached, read-only."""
    if domain.kind != SPHERE:
        return read_only(sample_domain(domain, resolution))
    d = domain.dimension
    base = (_sphere_spiral(max(8, 2 * resolution * resolution)) if d == 3
            else sample_domain(domain, resolution))
    return read_only(_unique_rows(np.vstack([base, _sphere_marks(d)])))


def _symmetric(p) -> bool:
    """Whether p (a Poly or a BoundPlan), in at least 2 variables, is
    invariant under every permutation of them: each coefficient equals (==,
    no arithmetic) that of its image under the transposition (x1 x2) and
    under the cycle (x1 ... xn), which generate S_n."""
    if p.nvars < 2:
        return False
    terms = p.terms
    return all(terms.get(e[1::-1] + e[2:]) == c and terms.get(e[1:] + e[:1]) == c
               for e, c in terms.items())


def far_apart(block: np.ndarray, ref: np.ndarray, tol: float) -> np.ndarray:
    """far[i, j]: the max-norm distance from block[i] to ref[j] exceeds tol
    (False at a NaN); the table is built one coordinate at a time."""
    dist = np.abs(block[:, None, 0] - ref[:, 0])
    for i in range(1, ref.shape[1]):
        np.maximum(dist, np.abs(block[:, None, i] - ref[:, i]), out=dist)
    return dist > tol


def dedup_points(points, tol: float = DEDUP_TOL) -> list[int]:
    """Indices of the greedy first-wins subset of the points: a point is kept
    when its max-norm distance to every point already kept is > tol.  Each
    block of DEDUP_BLOCK rows is compared once with the points kept before
    it and with itself; then the loop runs once per kept point."""
    if len(points) == 0:
        return []
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    kept: list[int] = []
    for lo in range(0, len(pts), DEDUP_BLOCK):
        block, nk = pts[lo:lo + DEDUP_BLOCK], len(kept)
        # against the points kept so far, then the block itself
        far = far_apart(block, np.vstack([pts[kept], block]), tol)
        unseen = far[:, :nk].all(axis=1)    # far from every point kept before the block
        while unseen.any():
            i = int(np.argmax(unseen))
            kept.append(lo + i)
            unseen[i] = False
            unseen &= far[i, nk:]
    return kept


def adjoin(points: np.ndarray, new) -> np.ndarray:
    """points followed by each new point farther than DEDUP_TOL (max norm)
    from every point before it, so no point is adjoined twice.  The new
    points meet points a block at a time, each block's distance table at
    most ADJOIN_BLOCK floats."""
    new = np.asarray(new, dtype=float).reshape(-1, points.shape[1])
    far = np.empty(len(new), dtype=bool)
    step = max(1, ADJOIN_BLOCK // len(points))
    for lo in range(0, len(new), step):
        far[lo:lo + step] = far_apart(new[lo:lo + step], points, DEDUP_TOL).all(axis=1)
    new = new[far]
    return np.vstack([points, new[dedup_points(new)]])


# --------------------------------------------------------------------------
# face charts
# --------------------------------------------------------------------------


def simplex_faces(d: int):
    """All faces of the standard simplex as (zeros, sum_active) pairs,
    ordered interior first, then by codimension."""
    faces = []
    for num_zero in range(d + 1):
        for zeros in combinations(range(d), num_zero):
            for sum_active in (False, True):
                if d - num_zero - (1 if sum_active else 0) >= 0:
                    faces.append((zeros, sum_active))
    faces.sort(key=lambda f: (len(f[0]) + f[1], f))
    return faces


def restrict_to_face(p: Poly, zeros: tuple, sum_active: bool) -> Poly:
    """Chart polynomial of p on a simplex face (free variables, then the
    affine elimination of the last free variable when the sum is active)."""
    q = p
    for i in sorted(zeros, reverse=True):
        q = restrict_zero(q, i)
    if sum_active:
        if q.nvars == 0:
            raise PolyError("sum face of a point is empty")
        q = restrict_affine_last(q) if q.nvars >= 2 else Poly.constant(0, q.eval((1,)), q.field)
    return q


def embed_from_face(y, zeros: tuple, sum_active: bool, d: int) -> tuple:
    """Map chart coordinates back to ambient simplex coordinates."""
    free = [i for i in range(d) if i not in zeros]
    x = [0.0] * d
    ys = list(y)
    if sum_active:
        ys = ys + [1.0 - sum(ys)]
    for i, v in zip(free, ys):
        x[i] = float(v)
    return tuple(x)


def _chart_dim(zeros: tuple, sum_active: bool, d: int) -> int:
    return d - len(zeros) - (1 if sum_active else 0)


# --------------------------------------------------------------------------
# Newton searches
# --------------------------------------------------------------------------


def _batched_solve(H: np.ndarray, g: np.ndarray):
    """Solve H x = -g per row; a row whose H is non-finite (its scale is then
    inf or NaN) or singular, |det H| <= 1e-14 max|H|^k, gets a NaN step.
    The LAPACK gufuncs behind np.linalg.det and np.linalg.solve are called
    directly, without the wrappers' per-call checks: each row is its own LU,
    so the steps are those of the wrappers bit for bit, and a singular row,
    which the solve fills with NaN, is a NaN step anyway."""
    k = H.shape[1]
    with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore"):
        dets = _umath_linalg.det(H, signature="d->d")
        bad = ~(np.abs(dets) > 1e-14 * np.maximum(np.abs(H).max(axis=(1, 2)), 1e-30) ** k)
        step = _umath_linalg.solve1(H, -g, signature="dd->d")
    step[bad] = np.nan
    return step


def _lockstep(Z: np.ndarray, evaluate, advance, tol: float, max_iter: int):
    """Newton on every row of Z in place, all rows in step; returns the mask of
    converged rows.  evaluate gives the running rows' residuals F and Jacobians
    J from one evaluation; a row converges when max|F| <= tol or when advance,
    given rows and steps -J^-1 F, flags its step as negligible; a row that
    advance leaves non-finite is dead and is never reported.  The running
    rows (indices idx, values R) are written back into Z as they stop."""
    converged = np.zeros(len(Z), dtype=bool)
    idx = np.flatnonzero(np.isfinite(Z).all(axis=1))
    R = Z[idx]
    for _ in range(max_iter):
        if idx.size == 0:
            break
        F, J = evaluate(R)
        done = np.max(np.abs(F), axis=1) <= tol
        if done.any():
            Z[idx[done]], converged[idx[done]] = R[done], True
            idx, R, F, J = idx[~done], R[~done], F[~done], J[~done]
            if idx.size == 0:
                break
        R, negligible = advance(R, _batched_solve(J, F))
        leave = negligible | ~np.isfinite(R).all(axis=1)
        if leave.any():
            Z[idx[leave]], converged[idx[negligible]] = R[leave], True
            idx, R = idx[~leave], R[~leave]
    Z[idx] = R
    return converged


def _newton_critical_points(ders: Derivatives, starts: np.ndarray, feasible,
                            grad_tol: float):
    """Multi-start Newton for grad q = 0 inside a chart (ders: the
    Derivatives of q), each step capped at length 1 + |x|; rows with
    singular Hessians die.  feasible maps an (n, k) array of chart points to
    a row mask.  Returns deduplicated chart points; a chart of no variables
    is its one point."""
    k = ders.nvars
    if k == 0:
        return [()]
    X = np.array(starts, dtype=float).reshape(-1, k)

    def advance(X, s):
        limit = 1.0 + np.sqrt(np.add.reduce(X * X, axis=1))
        norms = np.sqrt(np.add.reduce(s * s, axis=1))
        shrink = norms > limit
        if shrink.any():
            s[shrink] *= (limit[shrink] / norms[shrink])[:, None]
        X = X + s
        return X, norms <= 1e-15 * (1.0 + np.sqrt(np.add.reduce(X * X, axis=1)))

    ok = _lockstep(X, ders, advance, grad_tol, 60)
    found = X[ok & feasible(X)]
    return list(map(tuple, found[dedup_points(found)].tolist()))


def _sphere_critical_points(ders: Derivatives, starts: np.ndarray, grad_tol: float):
    """Lagrange stationarity on the unit sphere: grad p = 2 lambda x, |x| = 1
    (ders: the Derivatives of p), solved by Newton on the bordered system in
    the rows (x, lambda).  The derivatives at the normalized starts give
    lambda's start and serve the first step too, when every row runs in it."""
    d = ders.nvars
    X = np.array(starts, dtype=float).reshape(-1, d)
    nrm = np.linalg.norm(X, axis=1)
    X = X[nrm > 0] / nrm[nrm > 0, None]
    first = [ders(X)]
    Z = np.column_stack([X, 0.5 * np.einsum("ij,ij->i", first[0][0], X)])
    eye = np.eye(d)

    def evaluate(Z):
        X, lam = Z[:, :d], Z[:, d]
        # the first step runs every row unless some start's lambda is not finite
        G, H = first.pop() if first and len(first[0][0]) == len(Z) else ders(X)
        first.clear()
        J = np.zeros((len(Z), d + 1, d + 1))
        J[:, :d, :d] = H - 2 * lam[:, None, None] * eye
        J[:, :d, d] = -2 * X
        J[:, d, :d] = 2 * X
        F = np.empty((len(Z), d + 1))
        F[:, :d] = G - 2 * lam[:, None] * X
        F[:, d] = np.einsum("ij,ij->i", X, X) - 1.0
        return F, J

    def advance(Z, s):
        Z = Z + s
        X = Z[:, :d]
        n = np.sqrt(np.add.reduce(X * X, axis=1))
        pos = n > 0
        Z[pos, :d] /= n[pos, None]
        return Z, np.sqrt(np.add.reduce(s * s, axis=1)) <= 1e-15

    ok = _lockstep(Z, evaluate, advance, grad_tol, 80)
    found = Z[ok, :d]
    return list(map(tuple, found[dedup_points(found)].tolist()))


def _simplex_starts(rng: np.random.Generator, k: int, count: int) -> np.ndarray:
    """Stratified random interior points of the k-simplex {y >= 0, sum <= 1}."""
    if k == 0:
        return np.zeros((1, 0))
    g = rng.gamma(1.0, 1.0, size=(count, k + 1))
    return g[:, :k] / g.sum(axis=1, keepdims=True)


def _grad_scale(coefs) -> float:
    """The scale of a chart's gradient tolerance: its largest |coefficient|, at least 1."""
    return max(1.0, float(np.max(np.abs(coefs), initial=0.0)))


def _with_values(table: MonomialTable, coefs: np.ndarray, pts: list) -> list:
    """(point, value) pairs of the polynomial with these monomials and
    coefficients, the values read from one batched evaluation."""
    X = np.array(pts).reshape(len(pts), table.nvars)
    return list(zip(pts, table.dot(X, coefs).tolist()))


def _memo(cache: dict, key, build):
    """cache[key], built by build() on first use."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _draw_starts(dom: Domain, seed: int, interior_only: bool, chamber: bool) -> list:
    """critical_points' Newton starts, in the order it uses them: a (face,
    starts) pair per simplex face it searches (starts None on a vertex); on
    the ball the interior and then the sphere starts; on the sphere its
    starts.  With chamber every start is sorted into the chamber (rows
    non-increasing, duplicates dropped) and the simplex is searched on one
    face per orbit (the zeros trailing)."""
    d = dom.nvars
    total = STARTS_PER_DIMENSION * max(1, dom.dimension)
    rng = np.random.default_rng(seed)

    def sort(X):
        return _unique_rows(np.sort(X, axis=1)[:, ::-1]) if chamber else X

    if dom.kind in (SIMPLEX, SIMPLEX_FACE):
        faces = simplex_faces(d)
        if interior_only:
            faces = [((), False)]
        elif chamber:
            faces = [(zeros, s) for zeros, s in faces
                     if zeros == tuple(range(d - len(zeros), d))]
        ks = [_chart_dim(zeros, s, d) for zeros, s in faces]
        return [(face, sort(_simplex_starts(rng, k, max(8, (total * (k + 1)) // (d + 1))))
                 if k else None) for face, k in zip(faces, ks)]
    if dom.kind == BALL:
        st = rng.uniform(-1, 1, size=(total, d))
        sph = rng.normal(size=(total, d))
        return [sort(st[np.einsum("ij,ij->i", st, st) < 1.0]),
                sort(np.vstack([sph, np.eye(d), -np.eye(d)]))]
    if dom.kind == SPHERE:
        sph = rng.normal(size=(total, d))
        return [sort(np.vstack([sph, _sphere_marks(d)]))]
    raise PolyError(f"unsupported domain {dom.kind}")


# --------------------------------------------------------------------------
# search plans
# --------------------------------------------------------------------------


def _row_sum(X: np.ndarray) -> np.ndarray:
    """The rows of X added one after another, as a chain of Poly additions
    adds each term's contributions."""
    return np.add.accumulate(X, axis=0)[-1] if len(X) else np.zeros(X.shape[1])


def _sum_face_rows(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """term_matrix of restrict_to_face of the monomials y^e x^m (the rows of
    exps) on x = 1 - sum y: x^m = sum over |b| <= m of (-1)^|b| m! / ((m -
    |b|)! b!) y^b, so row t of B holds these integers (exact in float64
    below 2^53) at the graded columns E of the exponents e + b."""
    m, top = exps[:, -1], int(exps[:, -1].max(initial=0))
    b = exponent_array(top, exps.shape[1] - 1)
    size = b.sum(axis=1)
    t, j = np.nonzero(size <= m[:, None])    # every (term, b) pair
    fact = np.array([math.factorial(i) for i in range(top + 1)],
                    dtype=np.int64 if top <= 20 else object)   # 20! < 2^63
    coef = fact[m[t]] // (fact[m[t] - size[j]] * np.prod(fact[b[j]], axis=1))
    E, col = grlex_unique(exps[t, :-1] + b[j])
    B = np.zeros((len(exps), len(E)))
    B[t, col] = np.where(size[j] % 2, -coef, coef)
    return E, B


class _Chart:
    """One face chart of a plan: restrict_to_face as a fixed linear map on
    the coefficient vectors of the plan's terms.  The faces x_i = 0 keep the
    terms without x_i (sel); the face sum x = 1 then sends each kept term to
    its exact restriction, B[t] (_sum_face_rows), the contributions added
    term after term in graded order, as restrict_to_face's compose adds
    them.  The chart's terms are in graded order, with one DerivativeMap and
    one value table."""

    def __init__(self, U: np.ndarray, zeros: tuple, sum_active: bool):
        free = [i for i in range(U.shape[1]) if i not in zeros]
        self.sel = np.flatnonzero(~U[:, list(zeros)].any(axis=1))
        exps, self.B = U[np.ix_(self.sel, free)], None
        if sum_active:
            exps, self.B = _sum_face_rows(exps)
        self.table, self.dmap = MonomialTable(exps), DerivativeMap(exps)

    def restrict(self, a: np.ndarray) -> np.ndarray:
        """The chart's coefficients of the polynomial with coefficients a."""
        return a[self.sel] if self.B is None else _row_sum(a[self.sel, None] * self.B)


class SearchPlan:
    """What the searches of the residuals f - sum_k c_k phi_k of one problem
    share across coefficient vectors c, each built on first use: the terms
    of f and the phi_k as the rows of M over the union of their exponents U,
    in graded lexicographic order; each face chart; each grid's monomial
    table; each seed's Newton starts.  A search takes a bound plan,
    plan.bind(c); a Poly p searched alone is SearchPlan(p).bind().  The
    residual's coefficients are those of the Poly arithmetic f - (c_1 phi_1
    + c_2 phi_2 + ...), and both sum their terms in graded order, so a
    planned search is bit for bit the search of that residual Poly when
    every term of U survives in it."""

    def __init__(self, target: Poly, basis=()):
        members = [p.to_float64() for p in [target, *basis]]
        self.nvars = members[0].nvars
        if any(p.nvars != self.nvars for p in members):
            raise PolyError("the target and the basis of a search plan need the same variables")
        self.U, self.M = term_matrix(members)
        self.charts, self.grids, self.starts = {}, {}, {}

    def bind(self, coeffs=()) -> "BoundPlan":
        """The residual f - sum_k coeffs_k phi_k."""
        c = np.asarray(coeffs, dtype=float).reshape(-1)
        if len(c) != len(self.M) - 1:
            raise PolyError(f"a plan of {len(self.M) - 1} basis functions needs as many coefficients")
        return BoundPlan(self, c, self.M[0] - _row_sum(c[:, None] * self.M[1:]))

    def chart(self, zeros: tuple, sum_active: bool) -> _Chart:
        return _memo(self.charts, (zeros, sum_active),
                     lambda: _Chart(self.U, zeros, sum_active))

    def grid(self, dom: Domain, resolution: int, chamber: bool):
        """The search grid, the chamber's or the whole one, and the monomial
        table of the plan's terms there (the interior chart's), a (first row,
        table) pair per chunk."""
        def build():
            pts = (_chamber_grid if chamber else sample_domain)(dom, resolution)
            return pts, list(self.chart((), False).table.tables(pts))
        return _memo(self.grids, (dom, resolution, chamber), build)


class BoundPlan:
    """A residual f - sum_k c_k phi_k of a plan: its coefficients a over the
    plan's terms.  ``poly`` is the residual Poly of the nonzero ones, whose
    terms and values are the bound plan's, so the residual's symmetry is
    decided as a Poly's; equal bound plans share the plan and the
    coefficients."""

    __hash__ = None

    def __init__(self, plan: SearchPlan, coeffs: np.ndarray, a: np.ndarray):
        self.plan, self.coeffs, self.a = plan, coeffs, a
        on = np.flatnonzero(a)
        self.poly = Poly(plan.nvars, dict(zip(map(tuple, plan.U[on].tolist()), a[on].tolist())),
                         FLOAT64)
        self.nvars, self.terms, self.eval = plan.nvars, self.poly.terms, self.poly.eval

    def __eq__(self, other):
        if not isinstance(other, BoundPlan):
            return NotImplemented
        return self.plan is other.plan and np.array_equal(self.coeffs, other.coeffs)


def _bound(p) -> BoundPlan:
    """p itself if it is a bound plan; a Poly as the plan of itself alone."""
    return p if isinstance(p, BoundPlan) else SearchPlan(p).bind()


def critical_points(p, dom: Domain, seed: int = 0,
                    interior_only: bool = False):
    """Multi-start Newton stationary points of p (a Poly or a BoundPlan) on
    the domain.

    Interior criticals solve grad p = 0; each face of the simplex is searched
    through its affine chart; the ball boundary and the sphere use Lagrange
    stationarity.  Returns (point, value) pairs deduplicated at 1e-8 in
    coordinates, each value that of the chart (or p) at the converged point.

    A symmetric p gives one representative per S_n orbit, its coordinates
    non-increasing: the simplex is searched on one face per orbit (the zeros
    trailing), and every start is sorted into the chamber (duplicates
    dropped).  Newton commutes with the permutations up to rounding, so a
    sorted start finds the sorted point its unsorted self would: the starts
    are not thinned, and each orbit is found as often as in the full search.
    """
    b = _bound(p)
    d = dom.nvars
    if b.nvars != d:
        raise PolyError(f"polynomial has {b.nvars} variables, domain needs {d}")
    symmetric = _symmetric(b)
    plan = b.plan
    starts = _memo(plan.starts, (dom, seed, interior_only, symmetric),
                   lambda: _draw_starts(dom, seed, interior_only, symmetric))
    results = []
    if dom.kind in (SIMPLEX, SIMPLEX_FACE):

        def feasible(Y):
            return np.all(Y > 1e-9, axis=1) & (Y.sum(axis=1) < 1 - 1e-9)

        for (zeros, sum_active), st in starts:
            chart = plan.chart(zeros, sum_active)
            c, ys = chart.restrict(b.a), [()]
            if chart.table.nvars:
                ys = _newton_critical_points(chart.dmap(c), st, feasible, 1e-11 * _grad_scale(c))
            results.extend((embed_from_face(y, zeros, sum_active, d), v)
                           for y, v in _with_values(chart.table, c, ys))
    else:
        chart, c = plan.chart((), False), b.a   # the interior chart: the identity map
        table, ders, tol = chart.table, chart.dmap(c), 1e-11 * _grad_scale(c)
        if dom.kind == BALL:
            inside = _newton_critical_points(
                ders, starts[0], lambda X: np.einsum("ij,ij->i", X, X) < 1 - 1e-9, tol)
            results.extend(_with_values(table, c, inside))
            if not interior_only and d >= 2:
                results.extend(_with_values(
                    table, c, _sphere_critical_points(ders, starts[1], tol)))
            elif not interior_only and d == 1:
                results.extend(_with_values(table, c, [(-1.0,), (1.0,)]))
        else:
            results.extend(_with_values(table, c, _sphere_critical_points(ders, starts[0], tol)))

    if symmetric:
        results = [(tuple(sorted(pt, reverse=True)), v) for pt, v in results]
    return [results[i] for i in dedup_points([pt for pt, _ in results])]


# --------------------------------------------------------------------------
# sup norm
# --------------------------------------------------------------------------


def sup_norm(p, dom: Domain, resolution: int,
             seed: int = 0) -> SupNormReport:
    """Coarse grid maximum of |p| (a Poly or a BoundPlan) refined by
    stationary-point search on every face; falls back to the grid value if
    refinement fails everywhere.  A symmetric p is sampled and searched on
    its chamber only, so the argmax and the critical points are orbit
    representatives."""
    b = _bound(p)
    return _refine_grid(b, dom, resolution, critical_points(b, dom, seed=seed))


def _grid_values(p, dom: Domain, resolution: int):
    """The grid sup_norm samples p on, its chamber when p is symmetric, and
    the values of p there."""
    b = _bound(p)
    grid, tables = b.plan.grid(dom, resolution, _symmetric(b))
    values = np.empty(len(grid))
    for lo, table in tables:
        values[lo:lo + len(table)] = table @ b.a
    return grid, values


def grid_max(p, dom: Domain, resolution: int) -> float:
    """max |p| on the grid that sup_norm(p, dom, resolution) samples."""
    return float(np.max(np.abs(_grid_values(p, dom, resolution)[1])))


def _refine_grid(p, dom: Domain, resolution: int, crits: list) -> SupNormReport:
    """The first maximum of |p| over the grid rows, then the critical points:
    a critical value replaces the grid's maximum only when it is larger (or
    NaN, which np.argmax takes first)."""
    grid, values = _grid_values(p, dom, resolution)
    mags = np.abs(values)
    i = int(np.argmax(mags))
    grid_value = value = float(mags[i])
    argmax = tuple(float(v) for v in grid[i])
    if crits:
        crit_mags = np.abs(np.array([val for _, val in crits], dtype=float))
        j = int(np.argmax(crit_mags))
        if not (crit_mags[j] <= value or math.isnan(value)):
            value, argmax = float(crit_mags[j]), tuple(float(v) for v in crits[j][0])
    return SupNormReport(value=value, argmax=argmax, critical_points=crits, grid_value=grid_value)


def signed_max(p, dom: Domain, resolution: int, seed: int = 0) -> tuple:
    """Maximum of p (not |p|) over a simplex or a ball, and over its boundary:
    some x_i <= 1e-12 or sum x >= 1 - 1e-12 on the simplex, |x|^2 >= 1 - 1e-12
    on the ball.  A symmetric p is searched on one representative per orbit,
    as in sup_norm."""
    if dom.kind not in (SIMPLEX, BALL):
        raise PolyError(f"signed_max needs a simplex or a ball, not {dom.kind}")
    b = _bound(p)
    crits = critical_points(b, dom, seed=seed)
    grid, values = _grid_values(b, dom, resolution)
    # the grid rows, then the critical points, and the value of p at each
    pts = np.vstack([grid, np.array([pt for pt, _ in crits], dtype=float)
                     .reshape(len(crits), grid.shape[1])])
    vals = np.concatenate([values, [val for _, val in crits]])
    if dom.kind == SIMPLEX:
        rim = np.any(pts <= 1e-12, axis=1) | (pts.sum(axis=1) >= 1 - 1e-12)
    else:
        rim = np.einsum("ij,ij->i", pts, pts) >= 1 - 1e-12
    return float(np.max(vals)), float(np.max(vals[rim], initial=-math.inf))


# --------------------------------------------------------------------------
# the T_d bound verification
# --------------------------------------------------------------------------


def verify_td_bound(d: int, resolution: int = 16, seed: int = 0,
                    tol: float = 1e-6) -> dict:
    """Bound |T_d| on the simplex, searching each face once.  For k = d, ..., 3
    the loop takes the interior critical values of T_k and the grid plus the
    interior critical values of its sum = 1 chart.  The faces x_i = 0 carry
    -T_{k-1} exactly and pass to the next k (they hold the boundary of the
    sum = 1 chart too), except at k = 3, where each distinct one is searched.

    For d <= 5 this reproduces the proved value 1; for d >= 6 the report is
    exploratory (``conjecture_mode``) and never asserts the bound.
    """
    report: dict = {"d": d, "conjecture_mode": d >= 6, "zero_face_identity_exact": True}
    estimate = 0.0
    td = build_td(d).polynomial
    for k in range(d, 2, -1):
        tdf = td.to_float64()
        interior = critical_points(tdf, Domain(SIMPLEX, k), seed=seed, interior_only=True)
        interior_max = max((abs(v) for _, v in interior), default=0.0)
        chart, chart_dom = SearchPlan(restrict_affine_last(tdf)).bind(), Domain(SIMPLEX, k - 1)
        face = _refine_grid(chart, chart_dom, resolution, critical_points(
            chart, chart_dom, seed=seed, interior_only=True))
        if k == d:
            report.update(interior_critical_points=interior, interior_max_abs=interior_max,
                          sum_face_sup=face.value, sum_face_argmax=face.argmax)
        estimate = max(estimate, interior_max, face.value)
        if k > 3:
            lower = build_td(k - 1).polynomial
            report["zero_face_identity_exact"] &= all(
                restrict_zero(td, i) == -lower for i in range(k))
            td = lower
        else:   # T_3 is symmetric, so its three zero faces are one polynomial
            faces = [restrict_zero(tdf, i) for i in range(k)]
            for i, face in enumerate(faces):
                if face not in faces[:i]:
                    estimate = max(estimate, sup_norm(face, chart_dom, resolution, seed=seed).value)
    report["max_abs_estimate"] = estimate
    report["passed"] = bool(estimate <= 1 + tol) and report["zero_face_identity_exact"]
    return report


# --------------------------------------------------------------------------
# level sets
# --------------------------------------------------------------------------


def level_set(f: Poly, p: Poly, r: float, dom: Domain, tol: float = 1e-9,
              resolution: int = 48, seed: int = 0):
    """Points of a simplex-type domain where |f - p| reaches its maximum r.

    r must be max |f - p| over the domain: a face lattice value above r + tol
    raises PolyError, since a lower level would come back as a partial set.
    Every point of the set is a stationary point of f - p on the face that
    holds it in its relative interior, so each face chart is searched by
    Newton from its lattice points with |f - p| near r, and the stationary
    points whose |f - p| is within tol / 10 of r are kept.  For simplex_face
    domains, f and p are given in ambient coordinates and the returned points
    are ambient (last coordinate 1 - sum of the others).  seed is unused.
    """
    if not r > 0:
        raise PolyError("level r must be positive")
    if dom.kind not in (SIMPLEX, SIMPLEX_FACE):
        raise PolyError("level_set currently supports simplex-type domains")
    g = (f - p).to_float64()
    if g.nvars != dom.dimension:
        raise PolyError(f"residual has {g.nvars} variables, {dom.label()} needs {dom.dimension}")
    face_mode, d = dom.kind == SIMPLEX_FACE, dom.nvars
    if face_mode:
        g = restrict_affine_last(g)

    def closed(Y):
        return np.all(Y > -1e-9, axis=1) & (Y.sum(axis=1) <= 1 + 1e-9)

    plan, found = SearchPlan(g), []
    for zeros, sum_active in simplex_faces(d):
        chart = plan.chart(zeros, sum_active)
        c = chart.restrict(plan.M[0])
        lattice = _simplex_lattice(chart.table.nvars, max(4, resolution // (1 + len(zeros))))
        mags = np.abs(chart.table.dot(lattice, c))
        if mags.max() > r + tol:
            raise PolyError(f"|f - p| reaches {float(mags.max())!r} > r = {r!r} on the lattice")
        band = np.abs(mags - r)
        near = band <= max(10 * tol, 4 * float(np.min(band)), 0.05 * r)
        ys = _newton_critical_points(chart.dmap(c), lattice[near], closed, 1e-12 * _grad_scale(c))
        found += [embed_from_face(y, zeros, sum_active, d)
                  for y, v in _with_values(chart.table, c, ys) if abs(abs(v) - r) <= tol / 10]
    found.sort()
    out = [found[i] for i in dedup_points(found)]
    if face_mode:
        out = [pt + (1.0 - sum(pt),) for pt in out]
    return out
