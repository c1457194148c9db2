"""Sparse multivariate polynomial arithmetic, exact or float64.

A polynomial is a map from exponent tuples to coefficients.  Two coefficient
fields are supported: exact rationals (``fractions.Fraction``) and binary64
floats.  All construction-time algebra in this package is exact; floats only
appear in the search / LP layers, which convert via :meth:`Poly.to_float64`
or :func:`term_arrays` (the reverse conversion is deliberately not provided).

Terms are kept in canonical form: no zero coefficients are stored and every
exponent tuple has length ``nvars``.  Serialization and equality order terms
by graded lexicographic order on the exponent tuples.

Term order is never an input of a float result: a float64 polynomial holds
its terms in graded lexicographic order, sorted once when it is built, and
every float evaluation (``eval``, ``eval_grid``, ``PolyBatch``, the
derivative tables) sums the nonzero terms in that order.  So a float term
map gives the same bits however it was inserted.  Exact polynomials keep
insertion order, which no exact result depends on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from operator import add
from typing import Mapping, Sequence, Union

import numpy as np

RATIONAL = "rational"
FLOAT64 = "float64"
# PolyBatch builds its monomial table for at most this many points at a time
EVAL_CHUNK = 65536
# real_roots scans its interval in this many equal steps for sign changes
ROOT_SCAN_STEPS = 2000

Exponent = tuple[int, ...]
Scalar = Union[int, float, Fraction]


class PolyError(ValueError):
    """Base class for polynomial usage errors."""


class FieldMismatchError(PolyError):
    """Raised when exact-rational and float64 operands are mixed."""


class DimensionMismatchError(PolyError):
    """Raised when variable counts or point dimensions disagree."""


def _coerce(field: str, value: Scalar):
    if field == RATIONAL:
        if isinstance(value, Rational):
            return Fraction(value)
        raise FieldMismatchError(
            f"cannot use {value!r} as an exact rational coefficient; "
            "convert the polynomial with to_float64() first"
        )
    return float(value)


def _exponent(exp, nvars: int) -> Exponent:
    """exp as a tuple of nvars nonnegative ints, or the error that says why not."""
    ints = tuple(int(e) for e in exp)
    if ints != tuple(exp):
        raise PolyError(f"non-integral exponent in {exp}")
    if len(ints) != nvars:
        raise DimensionMismatchError(
            f"exponent {ints} has length {len(ints)}, expected {nvars}")
    if any(e < 0 for e in ints):
        raise PolyError(f"negative exponent in {ints}")
    return ints


def _mul_terms(a: Mapping[Exponent, Scalar], b: Mapping[Exponent, Scalar]) -> dict:
    """Product terms in the order first reached; zero sums dropped at the end."""
    out: dict[Exponent, Scalar] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return {key: c for key, c in out.items() if c}


def _plain(c: Scalar) -> Scalar:
    """c, as an int if it is an integral Fraction: ints multiply faster."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    """Graded lexicographic sort key for an exponent tuple."""
    return (sum(exp), exp)


class Poly:
    """Sparse polynomial in ``nvars`` variables over one coefficient field.

    Instances are immutable by convention: no public method mutates ``terms``,
    so values can be shared freely between threads.
    """

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None,
                 field: str = RATIONAL):
        if nvars < 0:
            raise PolyError(f"nvars must be nonnegative, got {nvars}")
        if field not in (RATIONAL, FLOAT64):
            raise PolyError(f"unknown coefficient field {field!r}")
        ctype = Fraction if field == RATIONAL else float
        clean: dict[Exponent, Scalar] = {}
        for exp, coef in (terms or {}).items():
            # canonical input (a tuple of nvars nonnegative ints, a coefficient
            # of the field's type) is kept as it is; the rest is converted
            if not (type(exp) is tuple and len(exp) == nvars
                    and all(type(e) is int and e >= 0 for e in exp)):
                exp = _exponent(exp, nvars)
            c = coef if type(coef) is ctype else _coerce(field, coef)
            if c != 0:  # numerically equal keys are one key, so no two exps collide
                clean[exp] = c
        if field == FLOAT64:
            clean = dict(sorted(clean.items(), key=lambda kv: grlex_key(kv[0])))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field: str = RATIONAL) -> "Poly":
        return cls(nvars, {}, field)

    @classmethod
    def constant(cls, nvars: int, value: Scalar, field: str = RATIONAL) -> "Poly":
        return cls(nvars, {(0,) * nvars: value}, field)

    @classmethod
    def variable(cls, nvars: int, index: int, field: str = RATIONAL) -> "Poly":
        """The monomial x_index (0-based)."""
        if not 0 <= index < nvars:
            raise DimensionMismatchError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1}, field)

    @classmethod
    def monomial(cls, exponent: Sequence[int], coef: Scalar = 1,
                 field: str = RATIONAL) -> "Poly":
        return cls(len(exponent), {tuple(exponent): coef}, field)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> float:
        """Total degree; the zero polynomial reports -inf."""
        if not self.terms:
            return -math.inf
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponent: Sequence[int]) -> Scalar:
        zero = Fraction(0) if self.field == RATIONAL else 0.0
        return self.terms.get(tuple(exponent), zero)

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in graded lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Poly({self.nvars}, 0, {self.field})"
        bits = []
        for exp, coef in self.sorted_terms()[:8]:
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{coef}{'*' + mono if mono else ''}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return f"Poly({self.nvars}, {' + '.join(bits)}{tail}, {self.field})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self.field == other.field
                and self.terms == other.terms)

    __hash__ = None

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"nvars mismatch: {self.nvars} vs {other.nvars}")
        if self.field != other.field:
            raise FieldMismatchError(
                f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            out = dict(self.terms)
            zero = _coerce(self.field, 0)
            for exp, coef in other.terms.items():
                out[exp] = out.get(exp, zero) + coef
            return Poly(self.nvars, out, self.field)
        return self + Poly.constant(self.nvars, other, self.field)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()}, self.field)

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self + (-other)
        return self + (-_coerce(self.field, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            return Poly(self.nvars, _mul_terms(self.terms, other.terms), self.field)
        s = _coerce(self.field, other)
        return Poly(self.nvars, {e: c * s for e, c in self.terms.items()}, self.field)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolyError(f"polynomial power must be a nonnegative integer, got {n!r}")
        result = Poly.constant(self.nvars, 1, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Sequence[Scalar]):
        """Evaluate at a point; exact when both polynomial and point are exact."""
        pt = tuple(point)
        if len(pt) != self.nvars:
            raise DimensionMismatchError(
                f"point has dimension {len(pt)}, expected {self.nvars}")
        if self.field == RATIONAL:
            for v in pt:
                if not isinstance(v, Rational):
                    raise FieldMismatchError(
                        f"exact polynomial evaluated at non-rational coordinate {v!r}")
            xs = [Fraction(v) for v in pt]
        else:
            xs = [float(v) for v in pt]
        total = _coerce(self.field, 0)
        for exp, coef in self.terms.items():   # in term order: graded for floats
            term = coef
            for e, v in zip(exp, xs):
                if e:
                    term *= v ** e
            total += term
        return total

    def eval_grid(self, points: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation at an (N, nvars) array of points."""
        return PolyBatch([self])(points)[:, 0]

    # -- calculus and substitution -------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.nvars:
            raise DimensionMismatchError(
                f"variable index {index} out of range for nvars={self.nvars}")
        out: dict[Exponent, Scalar] = {}
        for exp, coef in self.terms.items():
            e = exp[index]
            if e:
                key = exp[:index] + (e - 1,) + exp[index + 1:]
                out[key] = out.get(key, _coerce(self.field, 0)) + coef * e
        return Poly(self.nvars, out, self.field)

    def gradient(self) -> list["Poly"]:
        return [self.partial(i) for i in range(self.nvars)]

    def compose(self, inners: Sequence["Poly"]) -> "Poly":
        """Substitute inners[i] for variable i; all inners share nvars and field."""
        if len(inners) != self.nvars:
            raise DimensionMismatchError(
                f"expected {self.nvars} inner polynomials, got {len(inners)}")
        if not inners:
            return Poly(0, dict(self.terms), self.field)
        ref = inners[0]
        for q in inners[1:]:
            ref._check_compatible(q)
        if ref.field != self.field:
            raise FieldMismatchError(
                f"field mismatch: outer {self.field}, inner {ref.field}")
        # plain term dicts, exact integers as ints; inner powers memoized; a
        # float product takes graded order, as the Poly operators give it
        one = (0,) * ref.nvars
        mul = _mul_terms if ref.field == RATIONAL else (
            lambda a, b: Poly(ref.nvars, _mul_terms(a, b), FLOAT64).terms)
        powers = [[{one: 1}, {e: _plain(c) for e, c in q.terms.items()}] for q in inners]
        total: dict[Exponent, Scalar] = {}
        for exp, coef in self.sorted_terms():
            term = {one: _plain(coef)}
            for cache, e in zip(powers, exp):
                while len(cache) <= e:
                    cache.append(mul(cache[-1], cache[1]))
                if e:
                    term = mul(term, cache[e])
            for key, c in term.items():
                total[key] = total.get(key, 0) + c
        return Poly(ref.nvars, total, ref.field)

    def to_float64(self) -> "Poly":
        """Lossy-free downcast of exact coefficients to binary64."""
        if self.field == FLOAT64:
            return self
        return Poly(self.nvars, {e: float(c) for e, c in self.terms.items()}, FLOAT64)


class MonomialTable:
    """The monomials x^e of a fixed exponent list, tabled at points one
    EVAL_CHUNK rows at a time: the one table builder of PolyBatch and
    Derivatives.  exps is an (m, nvars) integer array, a row per monomial."""

    def __init__(self, exps: np.ndarray):
        # row i: the exponent of variable i in each table column
        self.nvars = exps.shape[1]
        self.exps = np.ascontiguousarray(np.asarray(exps, dtype=np.int64).T)
        self.powers = np.arange(int(self.exps.max(initial=0)) + 1)
        # row i: where x_i^e sits in a point's powers, flattened variable by variable
        self.flat = self.exps + (np.arange(self.nvars) * len(self.powers))[:, None]

    def tables(self, points: np.ndarray):
        """(first row, monomial table) of each EVAL_CHUNK rows of points."""
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise DimensionMismatchError(
                f"grid shape {pts.shape} incompatible with nvars={self.nvars}")
        for lo in range(0, len(pts), EVAL_CHUNK):
            yield lo, self.table(pts[lo:lo + EVAL_CHUNK])

    def table(self, points: np.ndarray) -> np.ndarray:
        """The C-contiguous monomial table at up to EVAL_CHUNK (n, nvars) points."""
        pts = np.ascontiguousarray(points, dtype=float)
        if not self.nvars:
            return np.ones((len(pts), self.exps.shape[1]))
        pows = (pts[:, :, None] ** self.powers).reshape(len(pts), self.nvars * len(self.powers))
        # the first factor is the table, the others multiply into it in place
        table = np.take(pows, self.flat[0], axis=1)
        for i in range(1, self.nvars):
            table *= np.take(pows, self.flat[i], axis=1)
        return table

    def dot(self, points: np.ndarray, C: np.ndarray) -> np.ndarray:
        """The monomial table at points times C (a row per table column)."""
        out = np.empty((len(points),) + C.shape[1:])
        for lo, table in self.tables(points):
            out[lo:lo + len(table)] = table @ C
        return out


def term_arrays(maps: Sequence[Mapping], nvars: int) -> tuple[np.ndarray, np.ndarray]:
    """(E, V) of term maps {exponent tuple: coefficient} in nvars variables,
    as float64: each coefficient converted by float() and the zero ones
    dropped, the rows of E the union of the exponents left in graded
    lexicographic order, and V[k] the coefficients of maps[k] there (0.0
    where it has no such term), so its nonzero entries come in graded order."""
    rows = [{e: f for e, f in ((e, float(c)) for e, c in m.items()) if f} for m in maps]
    exps = sorted(set().union(*rows), key=grlex_key)
    cols = {e: j for j, e in enumerate(exps)}
    V = np.zeros((len(rows), len(exps)))
    for k, row in enumerate(rows):
        V[k, [cols[e] for e in row]] = list(row.values())
    return np.array(exps, dtype=np.int64).reshape(len(exps), nvars), V


def grlex_unique(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer exponent array in graded lexicographic
    order (by degree, then by the exponents; a run of equal rows is one row)
    and the index there of each row."""
    order = np.lexsort(np.vstack([rows.T[::-1], rows.sum(axis=1)]))
    run = np.ones(len(rows), dtype=bool)
    run[1:] = np.any(rows[order[1:]] != rows[order[:-1]], axis=1)
    return rows[order[run]], (np.cumsum(run) - 1)[np.argsort(order)]


def term_matrix(polys: Sequence[Poly]) -> tuple[np.ndarray, np.ndarray]:
    """term_arrays of the terms of polynomials in the same variables."""
    return term_arrays([p.terms for p in polys], polys[0].nvars)


class PolyBatch(MonomialTable):
    """Float64 values of several polynomials in the same variables, read from
    one monomial table per EVAL_CHUNK points over the graded union of their
    exponents (term_matrix, or term_arrays given as ``terms``).  Column k
    equals the k-th polynomial's ``eval_grid`` bit for bit: its term columns
    are gathered C-contiguous by
    np.take (an F-ordered gather takes another BLAS kernel and rounding) and
    summed by one matrix-vector product; one with every table column, as a
    batch of one, reads the table.  That product sums the last N mod 4 rows
    apart, so a value's last bit can depend on how many points one call
    evaluates: reported floats rely on the callers' batch sizes, on
    EVAL_CHUNK being a power of two and on the C-contiguous gather."""

    def __init__(self, polys: Sequence[Poly] = (), terms=None):
        E, V = term_matrix(polys) if terms is None else terms
        self.index = [np.flatnonzero(v) for v in V]
        self.coefs = [v[idx] for v, idx in zip(V, self.index)]
        super().__init__(E)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        out = np.empty((len(points), len(self.coefs)))
        for lo, table in self.tables(points):
            for k, (idx, coefs) in enumerate(zip(self.index, self.coefs)):
                terms = table if len(idx) == table.shape[1] else np.take(table, idx, axis=1)
                out[lo:lo + len(table), k] = terms @ coefs
        return out


class DerivativeMap:
    """The formal gradient and upper-triangle Hessian of the polynomials with
    exponent rows E, as a map from their coefficient vectors to Derivatives.
    C has a row per distinct monomial of the partials, in graded
    lexicographic order, and a column per partial (the gradient, then the
    Hessian's upper triangle row by row); each coefficient is the product
    (c e_i) e_j, as the formal derivatives compute it."""

    def __init__(self, E: np.ndarray):
        k = E.shape[1]
        # partial p differentiates by x_i[p] and then, for the Hessian, by x_j[p]
        upper = np.triu_indices(k)
        i = np.concatenate([np.arange(k), upper[0]]).astype(np.intp)
        j = np.concatenate([np.full(k, -1), upper[1]]).astype(np.intp)
        f1 = E[:, i].T                                   # e_i, a row per partial
        f2 = np.where((j >= 0)[:, None], E[:, j].T - (i == j)[:, None], 1)   # then e_j
        self.cols, self.src = np.nonzero((f1 > 0) & (f2 > 0))    # partial after partial
        self.f1, self.f2 = f1[self.cols, self.src], f2[self.cols, self.src]
        rows = E[self.src]
        rows[np.arange(len(rows)), i[self.cols]] -= 1
        hess = np.flatnonzero(j[self.cols] >= 0)
        rows[hess, j[self.cols[hess]]] -= 1
        # C's rows: the partials' distinct exponents in graded lexicographic order
        distinct, self.rows = grlex_unique(rows)
        self.shape = (len(distinct), len(i))
        self.table = MonomialTable(distinct)
        self.hidx = np.empty((k, k), dtype=np.intp)   # the column of Hessian entry (i, j)
        self.hidx[upper] = self.hidx[upper[::-1]] = np.arange(k, len(i))

    def __call__(self, coefs: np.ndarray) -> "Derivatives":
        C = np.zeros(self.shape)
        C[self.rows, self.cols] = (coefs[self.src] * self.f1) * self.f2
        return Derivatives(self.table, C, self.hidx)


class Derivatives:
    """Gradient and upper-triangle Hessian of a polynomial in float64: one
    monomial table per EVAL_CHUNK points, its monomials in graded lexicographic
    order, times a fixed coefficient matrix C, a column per entry (see
    DerivativeMap), the Hessian gathered by the (k, k) index hidx.  BLAS sums
    make an entry agree with its partial's ``eval_grid`` to rounding, not bit
    for bit; a vanishing one is 0.  The table must stay C-contiguous: another
    layout takes another BLAS kernel and moves last bits."""

    def __init__(self, table: MonomialTable, C: np.ndarray, hidx: np.ndarray):
        self.nvars, self.batch, self.C, self.hidx = table.nvars, table, C, hidx

    def __call__(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gradients, Hessians) at an (N, nvars) array of points."""
        out = (self.batch.table(points) @ self.C if len(points) <= EVAL_CHUNK
               else self.batch.dot(points, self.C))
        return out[:, :self.nvars], out[:, self.hidx]


# -- module-level operations ------------------------------------------------


def laplacian(p: Poly) -> Poly:
    """Sum of second partials over all variables."""
    total = Poly.zero(p.nvars, p.field)
    for i in range(p.nvars):
        total = total + p.partial(i).partial(i)
    return total


def real_roots(p: Poly, lo: float, hi: float) -> list[float]:
    """Real roots of the univariate ``p`` in [lo, hi), in increasing order.

    A scan in ROOT_SCAN_STEPS equal steps finds the sign changes (a scan point
    where p is exactly zero is a root as it stands); each bracket is bisected
    to 1e-14 and then polished by Newton on the exact derivative.  p and p'
    are evaluated by Horner on their dense float coefficients."""
    if p.nvars != 1:
        raise DimensionMismatchError(f"real_roots needs 1 variable, got {p.nvars}")
    if p.is_zero():
        raise PolyError("real_roots of the zero polynomial: every point is a root")
    coeffs = [float(p.coefficient((k,)))
              for k in range(max((e for (e,) in p.terms), default=0) + 1)]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]

    def horner(cs: list[float], t: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    step = (hi - lo) / ROOT_SCAN_STEPS
    roots = []
    prev_t, prev_v = lo, horner(coeffs, lo)
    for i in range(1, ROOT_SCAN_STEPS + 1):
        t = lo + i * step
        v = horner(coeffs, t)
        if prev_v == 0.0:
            roots.append(prev_t)
        elif prev_v * v < 0:
            a, b, fa = prev_t, t, prev_v
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = horner(coeffs, m)
                if fm == 0.0 or (b - a) < 1e-14:
                    break
                if fa * fm < 0:
                    b = m
                else:
                    a, fa = m, fm
            x = 0.5 * (a + b)
            for _ in range(50):
                df = horner(dcoeffs, x)
                if df == 0.0:
                    break
                dx = horner(coeffs, x) / df
                x -= dx
                if abs(dx) < 1e-15 * max(1.0, abs(x)):
                    break
            roots.append(x)
        prev_t, prev_v = t, v
    return roots


def restrict_zero(p: Poly, index: int) -> Poly:
    """Restrict to the face x_index = 0, dropping that variable."""
    if p.nvars < 1:
        raise DimensionMismatchError("cannot restrict a 0-variable polynomial")
    if not 0 <= index < p.nvars:
        raise DimensionMismatchError(
            f"variable index {index} out of range for nvars={p.nvars}")
    out: dict[Exponent, Scalar] = {}
    for exp, coef in p.terms.items():
        if exp[index] == 0:
            out[exp[:index] + exp[index + 1:]] = coef
    return Poly(p.nvars - 1, out, p.field)


def restrict_affine_last(p: Poly) -> Poly:
    """Substitute x_last = 1 - x_0 - ... - x_{d-2}, returning a (d-1)-variable polynomial."""
    if p.nvars < 2:
        raise DimensionMismatchError("affine restriction needs at least 2 variables")
    d = p.nvars
    inners = [Poly.variable(d - 1, i, p.field) for i in range(d - 1)]
    last = Poly.constant(d - 1, 1, p.field)
    for i in range(d - 1):
        last = last - inners[i]
    return p.compose(inners + [last])


def exponent_array(n: int, d: int) -> np.ndarray:
    """All exponents of total degree <= n in d variables, as the rows of an
    integer array in lexicographic order: each step repeats every prefix
    once per value its remaining degree allows and appends those values."""
    rows, left = np.zeros((1, 0), dtype=np.int64), np.array([n])
    for _ in range(d):
        counts = np.maximum(left + 1, 0)
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), value])
        left = np.repeat(left, counts) - value
    return rows


def monomial_exponents(n: int, d: int) -> list[Exponent]:
    """The rows of exponent_array(n, d) as tuples."""
    return list(map(tuple, exponent_array(n, d).tolist()))


def insert_zero(point: Sequence[Scalar], index: int) -> tuple:
    """Inverse of restrict_zero on points: re-insert a zero coordinate."""
    pt = list(point)
    pt.insert(index, 0)
    return tuple(pt)


def poly_equal(a: Poly, b: Poly, tol: Scalar = 0) -> bool:
    """Term-map equality; for float operands, max coefficient difference <= tol."""
    if a.nvars != b.nvars:
        raise DimensionMismatchError(f"nvars mismatch: {a.nvars} vs {b.nvars}")
    if a.field == RATIONAL and b.field == RATIONAL and tol == 0:
        return a.terms == b.terms
    af, bf = a.to_float64(), b.to_float64()
    keys = set(af.terms) | set(bf.terms)
    return all(abs(af.terms.get(k, 0.0) - bf.terms.get(k, 0.0)) <= tol for k in keys)


def max_coefficient_difference(a: Poly, b: Poly) -> float:
    af, bf = a.to_float64(), b.to_float64()
    keys = set(af.terms) | set(bf.terms)
    if not keys:
        return 0.0
    return max(abs(af.terms.get(k, 0.0) - bf.terms.get(k, 0.0)) for k in keys)


# -- canonical JSON serialization ---------------------------------------------


def poly_to_json_dict(p: Poly) -> dict:
    """Canonical JSON form; terms in graded-lex order, rational coefs as "p/q"."""
    terms = []
    for exp, coef in p.sorted_terms():
        if p.field == RATIONAL:
            c = f"{coef.numerator}/{coef.denominator}"
        else:
            c = float(coef)
        terms.append({"exp": list(exp), "coef": c})
    return {"nvars": p.nvars, "field": p.field, "terms": terms}


def poly_from_json_dict(data: Mapping) -> Poly:
    field = data["field"]
    terms = {}
    for item in data["terms"]:
        exp = tuple(int(e) for e in item["exp"])
        coef = item["coef"]
        if field == RATIONAL:
            coef = Fraction(str(coef))
        terms[exp] = coef
    return Poly(int(data["nvars"]), terms, field)
