"""Extremal signatures: point sets, annihilating functionals, and the
lower-bound certificate.

A signed, weighted point set (sigma, lambda) is an annihilating functional for
the polynomial space of degree <= n when sum lambda_v sigma(v) p(v) = 0 for
every such p.  Given a candidate approximant p* for a target f, a level r,
and such a functional supported where |f - p*| = r with matching signs, the
uniform deviation of f from every degree-n competitor is at least r.  This
module checks those certificates, builds the annihilating functionals of the
T_d and R_5 families, and solves for positive weights from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import comb
from numbers import Rational

import numpy as np

from .domains import Domain, domain_from_label
from .polycore import (FLOAT64, RATIONAL, Poly, PolyError,
                       monomial_exponents,  # re-exported: signatures' public API
                       poly_from_json_dict, poly_to_json_dict, real_roots)
from .constructions import R5Constants
from .symfun import distinct_permutations as orbit, partitions_upto

Point = tuple


# --------------------------------------------------------------------------
# data types
# --------------------------------------------------------------------------


@dataclass
class SignedPointSet:
    """Points with signs +-1 and optional strictly positive weights."""

    points: list[Point]
    signs: list[int]
    weights: list | None = None

    def __post_init__(self):
        if len(self.points) != len(self.signs):
            raise PolyError("points and signs must have equal length")
        if self.weights is not None and len(self.weights) != len(self.points):
            raise PolyError("weights must parallel points")
        if any(s not in (1, -1) for s in self.signs):
            raise PolyError("signs must be +1 or -1")
        self.points = [tuple(p) for p in self.points]
        if len(set(self.points)) != len(self.points):
            raise PolyError("support points must be pairwise distinct")
        if self.weights is not None and any(not (w > 0) for w in self.weights):
            raise PolyError("weights must be strictly positive")

    def is_rational(self) -> bool:
        ok = all(isinstance(c, Rational) for p in self.points for c in p)
        if self.weights is not None:
            ok = ok and all(isinstance(w, Rational) for w in self.weights)
        return ok

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Certificate:
    """The data of a lower-bound certificate for E(target) >= level."""

    target: Poly
    candidate: Poly
    level: object            # Fraction or float, > 0
    degree: int              # annihilation space: all polynomials of degree <= degree
    support: SignedPointSet
    domain: Domain

    def __post_init__(self):
        if not self.level > 0:
            raise PolyError("certificate level must be positive")
        if not self.support.points:
            raise PolyError("certificate support is empty")
        if self.support.weights is None:
            raise PolyError("certificate support needs weights")
        for p in self.support.points:
            if not self.domain.contains(p):
                raise PolyError(f"support point {p} outside {self.domain.label()}")


# --------------------------------------------------------------------------
# orbits and the T_d extremal data
# --------------------------------------------------------------------------


def uniform_support_point(j: int, d: int) -> Point:
    """a_j = (1/j, ..., 1/j, 0, ..., 0) with j nonzero entries, in R^d."""
    return tuple([Fraction(1, j)] * j + [Fraction(0)] * (d - j))


def build_extremal_sets(d: int) -> tuple[list[Point], list[Point]]:
    """The ladders of uniform points where T_d = +1 (S_plus) and -1 (S_minus).

    For odd d the +1 ladder uses j = d, d-2, ..., 1 and the -1 ladder the even
    j; parities swap for even d.  Every point lies on the face sum x_i = 1.
    """
    return _split_by_sign(build_l_functional(d))


def _split_by_sign(sps: SignedPointSet) -> tuple[list[Point], list[Point]]:
    signed = list(zip(sps.points, sps.signs))
    return [pt for pt, sg in signed if sg > 0], [pt for pt, sg in signed if sg < 0]


def build_l_functional(d: int) -> SignedPointSet:
    """The annihilating functional of the T_d signature: weight j^{d-1} and
    sign (-1)^{d-j} on every point of the a_j orbit, j = d down to 1."""
    if d < 3:
        raise PolyError(f"T_d extremal data is defined for d >= 3, got {d}")
    points: list[Point] = []
    signs: list[int] = []
    weights: list[Fraction] = []
    for j in range(d, 0, -1):
        orb = orbit(uniform_support_point(j, d))
        points.extend(orb)
        signs.extend([(-1) ** (d - j)] * len(orb))
        weights.extend([Fraction(j ** (d - 1))] * len(orb))
    return SignedPointSet(points, signs, weights)


# --------------------------------------------------------------------------
# the R_5 extremal data (float64)
# --------------------------------------------------------------------------

# Per-point weights of the unique positive functional on the R_5 support that
# annihilates every polynomial of degree <= 5, normalized to total mass 1.
# The six values reproduce the published ten-digit constants; note that in the
# published display the two diagonal parameters (and with them two of the
# weight labels) are interchanged relative to the sign pattern, which the
# assignment below resolves: the diagonal orbit at -d_root/9 sits at value +1,
# the one near 0.4588 at value -1.
R5_WEIGHT_CENTER = 0.0997251873
R5_WEIGHT_VERTEX = 0.0097228135
R5_WEIGHT_HALF = 0.0621246411
R5_WEIGHT_DIAG_PLUS = 0.0615774830
R5_WEIGHT_EDGE = 0.0243979796
R5_WEIGHT_DIAG_MINUS = 0.1178707075

# solve_signature_weights: annihilation degrees tried past n, and the relative
# singular-value cutoff of float systems
MAX_EXTENSION = 3
SV_CUTOFF = 1e-10


def r5_diagonal_parameters(consts: R5Constants) -> tuple[float, float]:
    """Diagonal orbit parameters (t_plus, t_minus) of the R_5 extremal set.

    On the diagonal of the face, 1 - U_5(x, x) = 2b x (1-2x) (1-3x)^2
    (9x + d)^2, so U_5 touches +1 at t_plus = -d/9 and dips to -1 at the
    interior maximizer t_minus of that product, where it equals 2.
    """
    x = Poly.variable(1, 0, FLOAT64)
    prod = (2 * consts.b * x * (1 - 2 * x) * (1 - 3 * x) ** 2
            * (9 * x + consts.d_root) ** 2)
    # 1/3 is a double root of prod, so the scan can return it as well
    t_minus = max(real_roots(prod.partial(0), 1 / 3, 1 / 2),
                  key=lambda t: prod.eval((t,)), default=math.nan)
    peak = prod.eval((t_minus,))
    if not abs(peak - 2.0) <= 1e-9:
        raise PolyError(f"diagonal -1 touch point not found: prod({t_minus}) = {peak}")
    return -consts.d_root / 9, t_minus


def r5_extremal_sets(consts: R5Constants) -> tuple[list[Point], list[Point]]:
    """S_plus and S_minus of the R_5 family on the face sum x_i = 1
    (the origin, where R_5 = 1 as well, is excluded from signature supports)."""
    return _split_by_sign(r5_signature(consts))


def r5_signature(consts: R5Constants) -> SignedPointSet:
    """The published R_5 functional: per-point weights on the six orbits,
    total mass 1, annihilating all polynomials of degree <= 5."""
    t_plus, t_minus = r5_diagonal_parameters(consts)
    s = math.sqrt(2.0)
    blocks = [
        ([(1 / 3, 1 / 3, 1 / 3)], 1, R5_WEIGHT_CENTER),
        (orbit((1.0, 0.0, 0.0)), 1, R5_WEIGHT_VERTEX),
        (orbit((0.5, 0.5, 0.0)), 1, R5_WEIGHT_HALF),
        (orbit((t_plus, t_plus, 1 - 2 * t_plus)), 1, R5_WEIGHT_DIAG_PLUS),
        (orbit(((2 - s) / 4, (2 + s) / 4, 0.0)), -1, R5_WEIGHT_EDGE),
        (orbit((t_minus, t_minus, 1 - 2 * t_minus)), -1, R5_WEIGHT_DIAG_MINUS),
    ]
    points, signs, weights = [], [], []
    for orb, sg, w in blocks:
        points.extend(orb)
        signs.extend([sg] * len(orb))
        weights.extend([w] * len(orb))
    return SignedPointSet(points, signs, weights)


# --------------------------------------------------------------------------
# annihilation
# --------------------------------------------------------------------------


def annihilation_residual(sps: SignedPointSet, n: int, d: int):
    """Max over monomials of degree <= n of |sum_v lambda_v sigma(v) v^alpha|.

    Exact (a Fraction) for rational data, which is scaled to integers in
    object arrays: points times m, weights times wden, so a sum over a
    monomial of degree k is m^k wden times its value; float otherwise.  The
    sweep runs over every monomial, sharing the partial products of exponent
    prefixes so the work is one multiply per (monomial, point).
    """
    if sps.weights is None:
        raise PolyError("annihilation check needs weights")
    if n < 0:
        raise PolyError(f"annihilation degree must be >= 0, got {n}")
    if any(len(p) != d for p in sps.points):
        raise PolyError(f"support points are not {d}-dimensional")
    rational = sps.is_rational()
    pts, wts = sps.points, sps.weights
    if rational:
        m = math.lcm(*[Fraction(c).denominator for p in pts for c in p])
        wden = math.lcm(*[Fraction(w).denominator for w in wts])
        pts = [tuple(int(Fraction(c) * m) for c in p) for p in pts]
        wts = [int(Fraction(w) * wden) for w in wts]
    dtype = object if rational else float
    X = np.array(pts, dtype=dtype).reshape(len(pts), d)
    cols = [np.ascontiguousarray(X[:, j]) for j in range(d)]
    sw = np.array(wts, dtype=dtype) * np.array(sps.signs, dtype=dtype)
    worst = [0] * (n + 1)   # by the monomial's degree n - rem

    def rec(pos: int, rem: int, prod):
        if pos == d:
            worst[n - rem] = max(worst[n - rem], abs(prod @ sw))
            return
        rec(pos + 1, rem, prod)
        v = prod
        for _ in range(rem):
            rem -= 1
            v = v * cols[pos]
            rec(pos + 1, rem, v)

    rec(0, n, np.ones(len(pts), dtype=dtype))
    if rational:
        return max(Fraction(w, m ** k * wden) for k, w in enumerate(worst))
    return float(max(worst))


def check_annihilation(sps: SignedPointSet, n: int, d: int,
                       tol: float = 1e-8) -> bool:
    """True iff the signed weighted sum vanishes on every monomial of total
    degree <= n: exactly for rational data, else within tol * ||weights||_1."""
    resid = annihilation_residual(sps, n, d)
    if isinstance(resid, Fraction):
        return resid == 0
    scale = sum(abs(float(w)) for w in sps.weights)
    return resid <= tol * scale


# --------------------------------------------------------------------------
# solving for positive weights
# --------------------------------------------------------------------------


@dataclass
class SignatureSolution:
    feasible: bool
    reason: str = ""
    support: SignedPointSet | None = None
    orbit_reps: list[Point] = dataclass_field(default_factory=list)
    orbit_sizes: list[int] = dataclass_field(default_factory=list)
    orbit_signs: list[int] = dataclass_field(default_factory=list)
    orbit_weights: list = dataclass_field(default_factory=list)  # per point
    base_nullspace_dim: int = 0
    extension_degree: int = 0
    residual: float = 0.0


def _orbit_rep(p: Point) -> Point:
    return tuple(sorted(p))


def _group_orbits(points: list[Point], sign: int):
    groups: dict[Point, list[Point]] = {}
    for p in points:
        groups.setdefault(_orbit_rep(p), []).append(p)
    return [(rep, pts, sign) for rep, pts in sorted(groups.items(), key=lambda kv: str(kv[0]))]


def _rational_nullspace(A: np.ndarray) -> np.ndarray:
    """Row-reduce an exact object matrix; its nullspace basis as the columns
    of a (k, r) object array."""
    ncols = A.shape[1]
    mat = [list(row) for row in A]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    N = np.full((ncols, len(free)), Fraction(0), dtype=object)
    for col, fc in enumerate(free):
        N[fc, col] = Fraction(1)
        for ri, pc in enumerate(pivots):
            N[pc, col] = -mat[ri][fc]
    return N


def _float_nullspace(A: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Right singular vectors of A below SV_CUTOFF relative to scale (by
    default the largest singular value), as the columns of a (k, r) array."""
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    if scale is None:
        scale = s[0] if s.size else 1.0
    rank = int(np.sum(s > SV_CUTOFF * scale))
    return vt[rank:].T


def _cone_interior(N: np.ndarray, floor) -> list:
    """For a two-column N, [N r] with r the sum of the extreme rays of the cone
    {r : N r >= 0}: the directions +-(-b, a), orthogonal to a row (a, b) of N,
    with N r >= 0 and N r != 0."""
    if N.shape[1] != 2:
        return []
    rays = [r for a, b in N for r in (np.array([-b, a]), np.array([b, -a]))
            if min(N @ r) >= -floor and any(N @ r != 0)]
    return [N @ np.sum(rays, axis=0)] if rays else []


def solve_signature_weights(s_plus: list[Point], s_minus: list[Point],
                            n: int, d: int) -> SignatureSolution:
    """Find per-point weights lambda_v > 0 with sum lambda_v = 1 making the
    signed point set annihilate all polynomials of degree <= n.

    Orbit symmetry collapses the unknowns to one per orbit.  When the
    annihilation system leaves more than one degree of freedom, annihilation
    conditions of degree n+1, n+2, ... are imposed inside the remaining
    freedom (most-annihilating selection); this tie-break is what makes the
    returned weights canonical.  Rational inputs are solved exactly in object
    arrays by Gaussian elimination, float inputs by SVD with a singular-value
    cutoff; the steps are the same in both fields.  A rational condition row
    is summed in integers: each orbit is scaled once over the common
    denominator m of its coordinates, and an entry of a degree-k monomial is
    one Fraction(integer sum, m^k), the same exact value as the Fraction sum.
    """
    orbits = _group_orbits(s_plus, 1) + _group_orbits(s_minus, -1)
    reps = [rep for rep, _, _ in orbits]
    sizes = [len(pts) for _, pts, _ in orbits]
    signs = [sg for _, _, sg in orbits]
    rational = all(isinstance(c, Rational) for rep in reps for c in rep)
    dtype = object if rational else float
    mass_floor = 0 if rational else 1e-14

    # rational orbits as integer points over the common denominator m of
    # their coordinates, float orbits as they are (m None)
    scaled = []
    for rep, pts, sg in orbits:
        if rational:
            m = math.lcm(*(Fraction(c).denominator for c in rep))
            pts = [tuple([int(Fraction(c) * m) for c in p]) for p in pts]
        else:
            m, pts = None, [tuple([float(c) for c in p]) for p in pts]
        scaled.append((m, pts, sg))

    def condition_rows(degree_lo: int, degree_hi: int) -> np.ndarray:
        # Orbits are permutation-closed, so the condition row of a monomial
        # depends only on its exponent multiset: one row per partition, the
        # monomial x_1^part_1 x_2^part_2 ...
        rows = []
        for part in partitions_upto(degree_hi, d):
            deg = sum(part)
            if deg < degree_lo:
                continue
            row = []
            for m, pts, sg in scaled:
                total = sum(math.prod([c ** e for c, e in zip(p, part)]) for p in pts)
                row.append(sg * total if m is None else Fraction(sg * total, m ** deg))
            rows.append(row)
        return np.array(rows, dtype=dtype)

    A = condition_rows(0, n)
    N = _rational_nullspace(A) if rational else _float_nullspace(A)
    base_dim = N.shape[1]
    if base_dim == 0:
        return SignatureSolution(False, "annihilation system admits only the zero functional",
                                 base_nullspace_dim=0)
    ext_degree = n
    # extend annihilation degree within the nullspace while freedom remains
    while N.shape[1] > 1 and ext_degree < n + MAX_EXTENSION:
        ext_degree += 1
        E = condition_rows(ext_degree, ext_degree)
        # float N has orthonormal columns, so the cutoff is relative to E: an
        # E @ N that is zero up to rounding has no rank, as in exact arithmetic
        N2 = (_rational_nullspace(E @ N) if rational
              else _float_nullspace(E @ N, np.linalg.norm(E, 2)))
        if N2.shape[1] == 0:
            break  # extension would force zero; stop extending
        N = N @ N2
    # normalize total mass 1 over the first positive column of the solution
    # space, else over the interior of its cone of nonnegative weights
    reason = "solution ray cannot be normalized"
    for vec in [*N.T, *_cone_interior(N, mass_floor)]:
        mass = vec @ np.array(sizes, dtype=dtype)
        if mass == 0 or abs(mass) < mass_floor:
            continue
        weights = vec / mass
        bad = [i for i, v in enumerate(weights) if not v > 0]
        if not bad:
            break
        reason = f"solution ray has non-positive weight on orbits {bad}"
    else:
        if N.shape[1] > 1:
            reason = (f"no positive ray found in a {N.shape[1]}-dimensional solution "
                      "space (selection is deterministic, not exhaustive)")
        return SignatureSolution(False, reason, base_nullspace_dim=base_dim,
                                 extension_degree=ext_degree)
    residual = float(np.max(np.abs(A @ weights)))

    points, point_signs, point_weights = [], [], []
    for (rep, pts, sg), w in zip(orbits, weights):
        points.extend(pts)
        point_signs.extend([sg] * len(pts))
        point_weights.extend([w] * len(pts))
    support = SignedPointSet(points, point_signs, point_weights)
    return SignatureSolution(True, "", support, reps, sizes, signs, list(weights),
                             base_dim, ext_degree, residual)


# --------------------------------------------------------------------------
# the lower-bound certificate
# --------------------------------------------------------------------------


@dataclass
class CertificateResult:
    certified: bool
    failures: list[str]
    pointwise_residual: object
    annihilation_res: object
    asserted_bound: object | None


def certify_lower_bound(cert: Certificate, tol=0) -> CertificateResult:
    """Check the three certificate conditions and, on success, assert the
    lower bound level - slack for the deviation of the target.

    (i) f(v) - p*(v) = sigma(v) * level at every support point (within tol);
    (ii) the weighted signature annihilates every polynomial of degree <= n;
    (iii) all weights are strictly positive.
    """
    failures: list[str] = []
    sps = cert.support
    exact = sps.is_rational() and cert.target.field == RATIONAL \
        and cert.candidate.field == RATIONAL and tol == 0

    worst = Fraction(0) if exact else 0.0
    for v, sg in zip(sps.points, sps.signs):
        fv = cert.target.eval(v)
        pv = cert.candidate.eval(v)
        resid = abs(fv - pv - sg * cert.level)
        worst = max(worst, resid)
    if worst > tol:
        failures.append(
            f"sign mismatch: |f(v) - p*(v) - sigma(v) r| reaches {float(worst)} > tol {float(tol)}")

    ann = annihilation_residual(sps, cert.degree, len(sps.points[0]))
    scale = sum(abs(float(w)) for w in sps.weights)
    if isinstance(ann, Fraction):
        if ann != 0:
            failures.append(f"annihilation fails exactly: residual {ann}")
    elif ann > max(float(tol), 1e-15) * scale:
        failures.append(f"annihilation residual {ann} exceeds tol*scale {float(tol) * scale}")

    if any(not (w > 0) for w in sps.weights):
        failures.append("weights are not all strictly positive")

    certified = not failures
    bound = None
    if certified:
        slack = worst + (ann / scale if not isinstance(ann, Fraction) else 0)
        bound = cert.level - slack
    return CertificateResult(certified, failures, worst, ann, bound)


# --------------------------------------------------------------------------
# combinatorial identity and the degree-2 cubature connection
# --------------------------------------------------------------------------


def combi_identity(d: int, k: int) -> int:
    """sum_{j=0}^{d} (-1)^j C(d, j) j^k, exactly (0^0 = 1).

    Vanishes for 1 <= k <= d-1 and equals (-1)^d d! at k = d.
    """
    if k < 0:
        raise PolyError(f"k must be nonnegative, got {k}")
    return sum((-1) ** j * comb(d, j) * (j ** k if (j or k) else 1)
               for j in range(d + 1))


def triangle_monomial_integral(a: int, b: int) -> Fraction:
    """Exact integral of x^a y^b over the standard triangle: a! b! / (a+b+2)!."""
    return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 2))


def cubature_check() -> dict:
    """Verify that both halves of the 3-variable functional are degree-2
    cubature rules for the (normalized) triangle integral, and exhibit a
    degree-3 monomial where the two rules separate.

    L1 has nodes (1/3,1/3), (1,0), (0,1), (0,0) with weights 3/4, 1/12 each;
    L2 has nodes (1/2,1/2), (1/2,0), (0,1/2) with weight 1/3 each.  Both must
    equal 2 * integral over the triangle on every monomial of degree <= 2.
    """
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    l1 = [((third, third), Fraction(3, 4)), ((Fraction(1), Fraction(0)), Fraction(1, 12)),
          ((Fraction(0), Fraction(1)), Fraction(1, 12)), ((Fraction(0), Fraction(0)), Fraction(1, 12))]
    l2 = [((half, half), third), ((half, Fraction(0)), third), ((Fraction(0), half), third)]

    def apply(rule, a, b):
        return sum(w * (x ** a) * (y ** b) for (x, y), w in rule)

    rows = []
    degree2_exact = True
    for a in range(3):
        for b in range(3 - a):
            v1, v2 = apply(l1, a, b), apply(l2, a, b)
            integral = 2 * triangle_monomial_integral(a, b)
            ok = v1 == v2 == integral
            degree2_exact = degree2_exact and ok
            rows.append({"monomial": (a, b), "L1": v1, "L2": v2,
                         "integral": integral, "exact": ok})
    witness = None
    for a in range(4):
        b = 3 - a
        v1, v2 = apply(l1, a, b), apply(l2, a, b)
        if v1 != v2:
            witness = {"monomial": (a, b), "L1": v1, "L2": v2,
                       "integral": 2 * triangle_monomial_integral(a, b)}
            break
    return {"degree2_exact": degree2_exact, "rows": rows,
            "degree3_witness": witness}


# --------------------------------------------------------------------------
# JSON round-trip for certificates
# --------------------------------------------------------------------------


def _scalar_to_json(v):
    if isinstance(v, Rational) and not isinstance(v, int):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    return float(v)


def _scalar_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def certificate_to_json_dict(cert: Certificate) -> dict:
    sps = cert.support
    return {
        "target": poly_to_json_dict(cert.target),
        "candidate": poly_to_json_dict(cert.candidate),
        "level": _scalar_to_json(cert.level),
        "degree": cert.degree,
        "domain": cert.domain.label(),
        "points": [[_scalar_to_json(c) for c in p] for p in sps.points],
        "signs": list(sps.signs),
        "weights": [_scalar_to_json(w) for w in sps.weights],
    }


def certificate_from_json_dict(data: dict) -> Certificate:
    sps = SignedPointSet(
        [tuple(_scalar_from_json(c) for c in p) for p in data["points"]],
        [int(s) for s in data["signs"]],
        [_scalar_from_json(w) for w in data["weights"]],
    )
    return Certificate(
        target=poly_from_json_dict(data["target"]),
        candidate=poly_from_json_dict(data["candidate"]),
        level=_scalar_from_json(data["level"]),
        degree=int(data["degree"]),
        support=sps,
        domain=domain_from_label(data["domain"]),
    )
