"""Construction of the extremal families.

Two families are built here:

* the exact-rational recursive family T_d (d >= 3) with its scale constants
  r_d, where T_3 = 72 e_3 - 4 e_1 + 4 e_1^2 - 8 e_2 + 1 and
  T_k = r_k e_k - T_{k-1} with r_k = k^k [T_{k-1}(1/k, ..., 1/k) + 1];
* the float64 degree-6 family R_5 / U_5 in three (resp. two) variables whose
  coefficients involve the root of an explicit integer degree-8 polynomial.

r_d is computed both by the recursion and by a closed-form sum, and the
builders fail loudly if the two disagree.  The exact algebra on T_d lives
here too: the bordered Vandermonde determinant D_d and its division by the
Vandermonde product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations
from math import comb

from .polycore import (FLOAT64, RATIONAL, Poly, PolyError, real_roots,
                       restrict_affine_last, restrict_zero)
from .symfun import elementary_symmetric, monomial_symmetric

# Integer coefficients (ascending degree) of the polynomial whose root in
# (-1.3, -1.1) determines the R_5 constants.
R5_ROOT_POLY = (
    -612220032, -1365527808, -835528041, -101556504,
    23270976, 26037504, 7670016, 929280, 41984,
)

R5_ROOT_BRACKET = (-1.3, -1.1)

# Miller-Rabin bases (the first 13 primes) and the bound below which they
# decide primality (Sorenson & Webster 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981
TD_CACHE_SIZE = 16   # build_td's cache bound: T_d has about 2^d terms


# --------------------------------------------------------------------------
# the exact family T_d and its scale r_d
# --------------------------------------------------------------------------


def _t3_at_uniform(k: int) -> Fraction:
    """T_3 evaluated at (1/k, ..., 1/k) in k variables: (9k^2 - 32k + 24)/k^2."""
    k = Fraction(k)
    return (9 * k * k - 32 * k + 24) / (k * k)


def compute_rd(d: int, method: str = "closed_form") -> int:
    """The leading scale r_d of T_d, as an exact integer.

    ``closed_form`` uses r_d = d * sum_{k=4}^{d} k^{d-3} C(d,k)
    [(-1)^k (9k^2 - 32k + 24) + k^2], with the base value r_3 = 72.
    ``recursive`` evaluates the definition r_k = k^k [T_{k-1}(1/k 1^k) + 1]
    exactly, expanding T_{k-1} at the uniform point through the e_k values
    e_j(1/k 1^k) = C(k, j) k^{-j}.
    """
    if d < 3:
        raise PolyError(f"r_d is defined for d >= 3, got {d}")
    if method == "closed_form":
        if d == 3:
            return 72
        total = sum(
            k ** (d - 3) * comb(d, k) * ((-1) ** k * (9 * k * k - 32 * k + 24) + k * k)
            for k in range(4, d + 1)
        )
        return d * total
    if method == "recursive":
        rs: dict[int, int] = {3: 72}
        for k in range(4, d + 1):
            # T_{k-1} at a_k = (1/k, ..., 1/k), exactly
            val = (-1) ** (k - 1 - 3) * _t3_at_uniform(k)
            for j in range(4, k):
                val += (-1) ** (k - 1 - j) * rs[j] * Fraction(comb(k, j), k ** j)
            rk = k ** k * (val + 1)
            if rk.denominator != 1:
                raise PolyError(f"recursive r_{k} is not an integer: {rk}")
            rs[k] = int(rk)
        return rs[d]
    raise PolyError(f"unknown method {method!r}; use 'closed_form' or 'recursive'")


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases MR_BASES, for n > 1 with no prime factor in
    MR_BASES; a proof of primality below MR_PROVEN_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's
    cycle search, products of 128 differences per gcd."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:   # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise PolyError(f"no factor of {n} found")


def prime_factorization(n: int) -> dict[int, int]:
    """Prime factorization: the primes in MR_BASES by division, the rest by
    Pollard-Brent rho.  A factor at or above MR_PROVEN_BOUND is only a
    probable prime (it passed the Miller-Rabin test)."""
    if n <= 0:
        raise PolyError(f"expected a positive integer, got {n}")
    factors: dict[int, int] = {}
    for p in MR_BASES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            g = _rho_factor(m)
            pending += [g, m // g]
    return dict(sorted(factors.items()))


@dataclass(frozen=True)
class FamilyReport:
    """A constructed family member with its deviation scale."""

    dimension: int
    polynomial: Poly
    r_value: object          # exact int/Fraction for T_d, float (27^2 b) for R_5
    construction_log: str
    constants: "R5Constants | None" = None


def build_t3(nvars: int, field: str = RATIONAL) -> Poly:
    """72 e_3 - 4 e_1 + 4 e_1^2 - 8 e_2 + 1, in any number of variables >= 3."""
    e1 = elementary_symmetric(1, nvars, field)
    e2 = elementary_symmetric(2, nvars, field)
    e3 = elementary_symmetric(3, nvars, field)
    return 72 * e3 - 4 * e1 + 4 * e1 * e1 - 8 * e2 + 1


@lru_cache(maxsize=TD_CACHE_SIZE)
def build_td(d: int) -> FamilyReport:
    """The exact-rational polynomial T_d in d variables.

    Alternating-sum form of the recursion:
    T_d = sum_{k=4}^{d} (-1)^{d-k} r_k e_k + (-1)^{d-3} T_3.
    Both r_d evaluation routes are compared and a disagreement aborts the build.
    Cached: the report is frozen and its Poly immutable, so callers share it.
    """
    if d < 3:
        raise PolyError(f"T_d is defined for d >= 3, got {d}")
    rs = {}
    for k in range(3, d + 1):
        closed = compute_rd(k, "closed_form")
        recursive = compute_rd(k, "recursive")
        if closed != recursive:
            raise PolyError(
                f"r_{k} mismatch: closed form {closed} vs recursion {recursive}")
        rs[k] = closed
    poly = (-1) ** (d - 3) * build_t3(d)
    for k in range(4, d + 1):
        poly = poly + (-1) ** (d - k) * rs[k] * elementary_symmetric(k, d)
    uniform = [Fraction(1, d)] * d
    if poly.eval(uniform) != 1:
        raise PolyError(f"T_{d} normalization failed at the uniform point")
    log = (f"T_{d}: alternating e_k sum with scales "
           + ", ".join(f"r_{k}={rs[k]}" for k in sorted(rs))
           + "; closed-form and recursive scales agree; value 1 at (1/d,...,1/d)")
    return FamilyReport(dimension=d, polynomial=poly, r_value=rs[d],
                        construction_log=log)


# --------------------------------------------------------------------------
# the R_5 / U_5 family
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class R5Constants:
    """Constants of the degree-6 family: the selected root and derived values.

    The quartic factor of the diagonal factorization is 2 b (9x + d_root)^2,
    which forces a = 16 (3 - 4 d_root) / (3 d_root^2) and b = 32 / d_root^2.
    The additive constant c is pinned by requiring U_5(1/3, 1/3) = 1, which
    gives c = 32/9 + a + b (direct evaluation; the value 2/9 sometimes quoted
    for this offset does not satisfy the normalization).
    """

    d_root: float

    @property
    def a(self) -> float:
        return 16 * (3 - 4 * self.d_root) / (3 * self.d_root ** 2)

    @property
    def b(self) -> float:
        return 32 / self.d_root ** 2

    @property
    def c(self) -> float:
        return 32 / 9 + self.a + self.b

    @property
    def leading(self) -> float:
        """27^2 b"""
        return 729 * self.b

    def validate(self) -> None:
        if not (R5_ROOT_BRACKET[0] < self.d_root < R5_ROOT_BRACKET[1]):
            raise PolyError(f"d_root {self.d_root} outside {R5_ROOT_BRACKET}")


def real_roots_of_r5_poly() -> list[float]:
    """All real roots in (-10, 10) of the degree-8 polynomial R5_ROOT_POLY."""
    return real_roots(Poly(1, {(k,): c for k, c in enumerate(R5_ROOT_POLY)}),
                      -10.0, 10.0)


@lru_cache(maxsize=1)
def derive_r5_constants() -> R5Constants:
    """Find the defining root in (-1.3, -1.1); a, b, c and 27^2 b follow."""
    roots = real_roots_of_r5_poly()
    inside = [r for r in roots if R5_ROOT_BRACKET[0] < r < R5_ROOT_BRACKET[1]]
    if not inside:
        raise PolyError(
            f"no real root of the degree-8 polynomial in {R5_ROOT_BRACKET}; "
            f"found roots {roots} (transcription error?)")
    return R5Constants(d_root=inside[0])


def build_r5(consts: R5Constants) -> Poly:
    """The explicit degree-6 polynomial R_5(x1, x2, x3), float64 coefficients."""
    consts.validate()
    a, b = consts.a, consts.b
    x = [Poly.variable(3, i, FLOAT64) for i in range(3)]
    e1 = x[0] + x[1] + x[2]
    e2 = x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
    e3 = x[0] * x[1] * x[2]
    m2 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2
    inner = 1 - 4 * e1 + 4 * m2
    return (729 * b * e3 ** 2 - 1 + 2 * e1 - 2 * e1 ** 2 + 2 * inner ** 2
            - 27 * e3 * ((32 / 9 - 2 * a + b) * e1 ** 2 + 6 * a * e2))


def build_u5(consts: R5Constants) -> Poly:
    """U_5(x, y) = R_5 restricted to the face x1 + x2 + x3 = 1, built from its
    two-variable closed form."""
    consts.validate()
    a, b, c = consts.a, consts.b, consts.c
    x = Poly.variable(2, 0, FLOAT64)
    y = Poly.variable(2, 1, FLOAT64)
    z = 1 - x - y
    m2 = x ** 2 + y ** 2 + z ** 2
    prod = x * y * z
    return 27 * prod * (27 * b * prod + 3 * a * m2 - c) + 2 * (4 * m2 - 3) ** 2 - 1


def build_u3() -> Poly:
    """U_3 = T_3 restricted to the face x1 + x2 + x3 = 1 (exact rational)."""
    return restrict_affine_last(build_t3(3))


def build_r5_report() -> FamilyReport:
    consts = derive_r5_constants()
    poly = build_r5(consts)
    log = (f"R_5: root d={consts.d_root!r} selected in {R5_ROOT_BRACKET} from the "
           f"degree-8 integer polynomial; a={consts.a!r}, b={consts.b!r}, "
           f"c=32/9+a+b={consts.c!r}, leading 27^2 b={consts.leading!r}")
    return FamilyReport(dimension=3, polynomial=poly, r_value=consts.leading,
                        construction_log=log, constants=consts)


def lift_to_ball(p: Poly) -> Poly:
    """Substitute x_i -> x_i^2, carrying a simplex extremal polynomial to the ball."""
    inners = [Poly.variable(p.nvars, i, p.field) ** 2 for i in range(p.nvars)]
    return p.compose(inners)


# --------------------------------------------------------------------------
# the face defect of the displayed R_5 formula and its repair
# --------------------------------------------------------------------------


def r5_face_defect(consts: R5Constants) -> dict:
    """Maximum of |R_5| on the diagonal of a face x_i = 0.

    The published closed form of R_5 exceeds 1 there: on x_3 = 0, x = y, the
    restriction g(x) = -1 + 4x - 8x^2 + 2(1 - 8x + 8x^2)^2 has an interior
    critical point (a root of 128x^3 - 192x^2 + 76x - 7) with g > 1, so the
    displayed polynomial is not bounded by 1 on the full simplex even though
    it is on the face sum x_i = 1."""
    x = Poly.variable(1, 0, FLOAT64)
    diag = restrict_zero(build_r5(consts), 2).compose([x, x])
    best = max(real_roots(diag.partial(0), 0.0, 0.5),
               key=lambda t: abs(diag.eval((t,))), default=0.0)
    value = diag.eval((best,))
    return {"diagonal_parameter": best, "value": value,
            "exceeds_one": abs(value) > 1}


def build_r5_repaired(consts: R5Constants) -> Poly:
    """R_5 minus 32 (1 - e_1)(x1^2 x2^2 + x1^2 x3^2 + x2^2 x3^2).

    The correction vanishes on the face sum x_i = 1 (so the restriction U_5
    and the extremal signature are untouched) and at the origin, and it bends
    the faces x_i = 0 back under 1: on their diagonals,
    1 - value = 4x (2x - 1)^2 (7 - 10x - 4x^2) >= 0.  The repaired polynomial
    satisfies sup over the simplex = 1, which the displayed closed form does
    not (see :func:`r5_face_defect`)."""
    r5 = build_r5(consts)
    correction = (1 - elementary_symmetric(1, 3)) * monomial_symmetric((2, 2), 3)
    return r5 - 32 * correction.to_float64()


# --------------------------------------------------------------------------
# the bordered Vandermonde determinant D_d of T_d
# --------------------------------------------------------------------------


def _vandermonde(nvars: int, nodes) -> Poly:
    """prod_{a < b} (x_{nodes[b]} - x_{nodes[a]}), expanded exactly."""
    poly = Poly.constant(nvars, 1)
    for a, i in enumerate(nodes):
        for j in nodes[a + 1:]:
            poly = poly * (Poly.variable(nvars, j) - Poly.variable(nvars, i))
    return poly


def dd_determinant(d: int) -> Poly:
    """Exact cofactor expansion (along the gradient row) of the
    (d-1) x (d-1) matrix with rows x_i^k (k = 0..d-3, i = 1..d-1) and last
    row the partials of T_d with respect to x_1..x_{d-1}."""
    if d < 3:
        raise PolyError(f"the determinant is defined for d >= 3, got {d}")
    td = build_td(d).polynomial
    n = d - 1
    total = Poly.zero(d)
    for i in range(n):
        # the Vandermonde minor on the remaining columns, nodes ascending
        minor = _vandermonde(d, [j for j in range(n) if j != i])
        total = total + (-1) ** (n - 1 + i) * td.partial(i) * minor
    return total


def d5_factorized_form() -> Poly:
    """-64 * prod_{1<=i<j<=4} (x_i - x_j) * (-14 + 225 x_5), expanded exactly
    (the six sign flips of the Vandermonde product cancel)."""
    return -64 * _vandermonde(5, range(4)) * (225 * Poly.variable(5, 4) - 14)


def _divide_linear(p: Poly, i: int, j: int) -> tuple[Poly, Poly]:
    """Exact division of p by (x_i - x_j): returns (quotient, remainder),
    with the remainder equal to p restricted to x_i = x_j.  Term by term,
    for m free of x_i: x_i^k m = (x_i - x_j) sum_{t<k} x_i^(k-1-t) x_j^t m
    + x_j^k m."""
    quotient: dict = {}
    remainder: dict = {}
    for exp, coef in p.terms.items():
        e = list(exp)
        for _ in range(exp[i]):   # x_i^(k-1-t) x_j^t m for t = 0, ..., k-1
            e[i] -= 1
            key = tuple(e)
            quotient[key] = quotient.get(key, 0) + coef
            e[j] += 1
        key = tuple(e)
        remainder[key] = remainder.get(key, 0) + coef
    return Poly(p.nvars, quotient, p.field), Poly(p.nvars, remainder, p.field)


def vandermonde_factor_report(d: int) -> dict:
    """Attempt exact division of D_d by the full Vandermonde product over
    x_1..x_{d-1}; reports divisibility and the quotient when it divides."""
    det = quotient = dd_determinant(d)
    divides = True
    for i, j in combinations(range(d - 1), 2):
        quotient, rem = _divide_linear(quotient, j, i)   # divide by (x_j - x_i)
        if not rem.is_zero():
            divides = False
            break
    return {"d": d, "vandermonde_divides": divides,
            "quotient": quotient if divides else None, "determinant": det}
