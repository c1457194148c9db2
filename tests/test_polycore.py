import math
import random
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest

from chebydev.polycore import (
    FLOAT64, DimensionMismatchError, FieldMismatchError, Poly,
    PolyError, insert_zero, laplacian, max_coefficient_difference,
    monomial_exponents, poly_equal, poly_from_json_dict, poly_to_json_dict,
    real_roots, restrict_affine_last, restrict_zero,
)
from chebydev import polycore
from chebydev.polycore import DerivativeMap, PolyBatch, term_matrix
from chebydev.constructions import build_t3, build_td, build_u3
from chebydev.symfun import chebyshev_t, chebyshev_t_shifted, elementary_symmetric


def third():
    return Fraction(1, 3)


class TestEval:
    def test_e1_at_point(self):
        e1 = elementary_symmetric(1, 3)
        assert e1.eval((1, 2, 3)) == 6

    def test_r3_values(self):
        r3 = build_t3(3)
        assert r3.eval((0, 0, 0)) == 1
        assert r3.eval((Fraction(1, 2), Fraction(1, 2), 0)) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            elementary_symmetric(1, 3).eval((1, 2))

    def test_field_mismatch_on_eval(self):
        with pytest.raises(FieldMismatchError):
            elementary_symmetric(1, 3).eval((0.5, 0.5, 0.0))

    def test_eval_grid_matches_pointwise(self):
        p = build_t3(3).to_float64()
        rng = np.random.default_rng(1)
        X = rng.random((50, 3))
        vals = p.eval_grid(X)
        for i in range(0, 50, 7):
            assert vals[i] == pytest.approx(p.eval(X[i]), abs=1e-13)

    def test_eval_result_type_follows_the_field(self):
        p = build_t3(3)
        pt = (Fraction(1, 7), Fraction(2, 5), Fraction(1, 3))
        exact = p.eval(pt)
        assert isinstance(exact, Fraction)
        assert exact == sum(c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
                            for e, c in p.terms.items())
        assert isinstance(p.eval((1, 0, 0)), Fraction) and p.eval((1, 0, 0)) == 1
        value = p.to_float64().eval(tuple(float(v) for v in pt))
        assert isinstance(value, float)
        assert value == pytest.approx(float(exact), abs=1e-14)
        assert isinstance(Poly.zero(2).eval((1, 1)), Fraction)
        assert isinstance(Poly.zero(2, FLOAT64).eval((1, 1)), float)


def _recursive_exponents(n, d):
    """The reference enumeration: exponents of degree <= n in d variables,
    prefix by prefix in lexicographic order."""
    out = []

    def rec(prefix, remaining, pos):
        for e in range(remaining + 1):
            if pos == d - 1:
                out.append(tuple(prefix + [e]))
            else:
                rec(prefix + [e], remaining - e, pos + 1)

    if d == 0:
        return [()]
    rec([], n, 0)
    return out


@pytest.mark.parametrize("d", range(6))
def test_monomial_exponents_match_the_recursion(d):
    for n in range(-1, 11):
        got = monomial_exponents(n, d)
        assert got == _recursive_exponents(n, d), n
        assert all(type(v) is int for e in got for v in e)
        assert polycore.exponent_array(n, d).shape == (len(got), d)


def _random_float_poly(rng, nvars, degree):
    exps = monomial_exponents(degree, nvars)
    keep = rng.random(len(exps)) < 0.7
    return Poly(nvars, {e: float(c) for e, c, k in
                        zip(exps, rng.normal(size=len(exps)), keep) if k}, FLOAT64)


def _exact(p):
    """The float polynomial p with its coefficients as exact rationals."""
    return Poly(p.nvars, {e: Fraction(c) for e, c in p.to_float64().terms.items()})


def _forward_error_excess(ders, p, X):
    """max over the gradient and upper Hessian entries at the rows of X of
    |computed - exact| / (gamma_m sum |c_e x^e|), where exact is the formal
    partial of p evaluated in Fraction at the float points (each float is an
    exact rational) and m counts the table columns summed plus the roundings
    of the powers, the products and the coefficients; above 1 fails."""
    G, H = ders(X)
    k, P = p.nvars, _exact(p)
    m = ders.C.shape[0] + 3 * k + 3
    gamma = m * 2.0 ** -53 / (1 - m * 2.0 ** -53)
    partials = [(G[:, i], P.partial(i)) for i in range(k)]
    partials += [(H[:, i, j], P.partial(i).partial(j)) for i in range(k) for j in range(i, k)]
    excess = 0.0
    for got, q in partials:
        mags = Poly(k, {e: abs(c) for e, c in q.terms.items()})
        for x, v in zip(X, got):
            pt = [Fraction(float(t)) for t in x]
            bound = gamma * float(mags.eval([abs(t) for t in pt]))
            err = abs(Fraction(float(v)) - q.eval(pt))
            excess = max(excess, float(err) / bound if bound else float(err != 0) * math.inf)
    return excess


def derivatives(p):
    """The Derivatives of one polynomial, from the DerivativeMap of its terms."""
    E, V = term_matrix([p])
    return DerivativeMap(E)(V[0])


class TestDerivatives:
    """Derivatives reads every gradient and upper Hessian entry from one
    monomial table by one product with a fixed coefficient matrix C.  C holds
    the formal partials' coefficients bit for bit; the product sums in BLAS
    order, so each entry is checked against the exact partial at the float
    points within the forward-error bound of that sum."""

    def assert_matches_partials(self, p, X):
        ders = derivatives(p)
        G, H = ders(X)
        assert G.shape == (len(X), p.nvars)
        assert H.shape == (len(X), p.nvars, p.nvars)
        assert np.array_equal(H, H.transpose(0, 2, 1))
        assert _forward_error_excess(ders, p, X) <= 1.0

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_bit_identical_to_partials(self, nvars):
        # the columns of C are the partials' coefficients, bit for bit, at the
        # table columns of their exponents; the entries are within the bound
        rng = np.random.default_rng(100 + nvars)
        for degree in (2, 4, 6):
            p = _random_float_poly(rng, nvars, degree)
            ders = derivatives(p)
            exps = [tuple(int(v) for v in col) for col in ders.batch.exps.T]
            grads = p.gradient()
            partials = grads + [grads[i].partial(j) for i in range(nvars) for j in range(i, nvars)]
            for col, q in zip(ders.C.T, partials):
                assert {exps[t]: c for t, c in enumerate(col) if c} == q.terms
            for n in (1, 7, 24):
                self.assert_matches_partials(p, rng.uniform(-1.5, 1.5, size=(n, nvars)))

    def test_mutated_coefficients_fail_the_check(self):
        rng = np.random.default_rng(9)
        p = _random_float_poly(rng, 3, 5)
        X = rng.uniform(-1.5, 1.5, size=(20, 3))
        ders = derivatives(p)
        assert _forward_error_excess(ders, p, X) <= 1.0
        exps = ders.batch.exps.T
        t, col = map(int, np.argwhere(ders.C)[0])
        # one term dropped
        ders.C[t, col] = 0.0
        assert _forward_error_excess(ders, p, X) > 1.0
        # the same term at an exponent one higher in some variable
        shifted = next(u for u in range(len(exps)) if np.abs(exps[u] - exps[t]).sum() == 1
                       and exps[u].sum() == exps[t].sum() + 1)
        ders.C[shifted, col] += derivatives(p).C[t, col]
        assert _forward_error_excess(ders, p, X) > 1.0

    def test_constant_in_one_variable(self):
        rng = np.random.default_rng(7)
        p = _random_float_poly(rng, 2, 5)
        p = Poly(3, {(a, b, 0): c for (a, b), c in p.terms.items()}, FLOAT64)
        assert p.partial(2).is_zero()
        X = rng.random((40, 3))
        self.assert_matches_partials(p, X)
        G, H = derivatives(p)(X)
        assert np.array_equal(G[:, 2], np.zeros(40))
        assert np.array_equal(H[:, 2, :], np.zeros((40, 3)))

    def test_zero_polynomial(self):
        X = np.random.default_rng(3).random((9, 3))
        self.assert_matches_partials(Poly.zero(3, FLOAT64), X)
        G, H = derivatives(Poly.zero(3, FLOAT64))(X)
        assert np.array_equal(G, np.zeros((9, 3)))
        assert np.array_equal(H, np.zeros((9, 3, 3)))

    def test_rational_polynomial_and_row_subsets(self):
        p = build_td(4).polynomial
        X = np.random.default_rng(5).random((50, 4)) / 4
        self.assert_matches_partials(p, X)
        self.assert_matches_partials(p, X[::3])

    def test_chunk_boundary(self, monkeypatch):
        # 30 points in chunks of 7 give the rows of one table of 30
        rng = np.random.default_rng(13)
        p = _random_float_poly(rng, 3, 4)
        X = rng.uniform(-1, 1, size=(30, 3))
        whole = derivatives(p)(X)
        monkeypatch.setattr(polycore, "EVAL_CHUNK", 7)
        for got, want in zip(derivatives(p)(X), whole):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def _partials_matrix(p):
    """The reference construction of Derivatives' (table exponents, C): the
    partials built as Poly objects, each one's coefficients placed at the
    columns of their graded exponent union."""
    grads = p.to_float64().gradient()
    rows, cols = np.triu_indices(p.nvars)
    E, V = term_matrix(grads + [grads[i].partial(j) for i, j in zip(rows, cols)])
    return E.T, V.T


class TestDerivativeMap:
    """Derivatives builds C from the term arrays: the same table columns in
    the same order, and the same (c e_i) e_j products, as the partials'
    construction."""

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_bit_identical_to_the_partials_construction(self, nvars):
        rng = np.random.default_rng(300 + nvars)
        polys = [_random_float_poly(rng, nvars, degree) for degree in (0, 1, 3, 5, 7)]
        # coefficients of every size, so that the products round
        polys += [p * 10.0 ** float(rng.integers(-8, 9)) + _random_float_poly(rng, nvars, 4)
                  for p in polys[2:]]
        polys += [Poly.zero(nvars, FLOAT64), build_td(3).polynomial] if nvars == 3 else []
        for p in polys:
            exps, C = _partials_matrix(p)
            ders = derivatives(p)
            assert np.array_equal(ders.batch.exps, exps)
            assert ders.C.tobytes() == C.tobytes()

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_td_charts(self, d):
        for p in (build_td(d).polynomial, restrict_affine_last(build_td(d).polynomial)):
            exps, C = _partials_matrix(p)
            ders = derivatives(p)
            assert np.array_equal(ders.batch.exps, exps) and ders.C.tobytes() == C.tobytes()

    def test_one_map_for_every_coefficient_vector(self):
        # the map depends on the exponents only; each coefficient vector
        # gives the Derivatives of its own polynomial, bit for bit
        rng = np.random.default_rng(17)
        p = _random_float_poly(rng, 3, 4)
        E, V = term_matrix([p])
        dmap = DerivativeMap(E)
        for scale in (1.0, -3.7, 1e-9):
            q = Poly(3, {e: scale * c for e, c in p.terms.items()}, FLOAT64)
            assert dmap(V[0] * scale).C.tobytes() == derivatives(q).C.tobytes()


class TestPolyBatch:
    """Each column of a batch is bit-identical to its polynomial's eval_grid,
    whatever else shares the monomial table."""

    def assert_columns_match(self, polys, X):
        V = PolyBatch(polys)(X)
        assert V.shape == (len(X), len(polys))
        for k, p in enumerate(polys):
            assert np.array_equal(V[:, k], p.eval_grid(X))

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_random_float_polys(self, nvars):
        rng = np.random.default_rng(200 + nvars)
        polys = [_random_float_poly(rng, nvars, degree) for degree in (0, 2, 4, 6)]
        for n in (1, 7, 64, 301):
            X = rng.uniform(-1.5, 1.5, size=(n, nvars))
            self.assert_columns_match(polys, X)
            self.assert_columns_match(polys[2:3], X)

    def test_zero_polynomial_and_rational_t4(self):
        t4 = chebyshev_t(4)
        X = np.random.default_rng(11).uniform(-1, 1, size=(50, 1))
        self.assert_columns_match([t4, Poly.zero(1, FLOAT64), t4.partial(0)], X)
        self.assert_columns_match([Poly.zero(1)], X)
        assert np.array_equal(PolyBatch([Poly.zero(1)])(X), np.zeros((50, 1)))

    def test_term_maps(self):
        # exact polynomials convert by float(), and give the batch of the
        # float Polys of the same term maps
        maps = [{(0, 2): Fraction(1, 3), (1, 0): 0, (0, 0): -2}, {(2, 0): 5, (0, 2): 0}]
        exact = [Poly(2, m) for m in maps]
        E, V = term_matrix(exact)
        assert E.tolist() == [[0, 0], [0, 2], [2, 0]]
        assert V.tolist() == [[-2.0, 1 / 3, 0.0], [0.0, 0.0, 5.0]]
        polys = [Poly(2, m, FLOAT64) for m in maps]
        X = np.random.default_rng(13).uniform(-1, 1, size=(9, 2))
        assert PolyBatch(exact)(X).tobytes() == PolyBatch(polys)(X).tobytes()

    def test_chunk_boundary(self, monkeypatch):
        # 30 points in chunks of 7: four full tables and a tail of two
        monkeypatch.setattr(polycore, "EVAL_CHUNK", 7)
        rng = np.random.default_rng(12)
        polys = [_random_float_poly(rng, 3, degree) for degree in (3, 5)]
        X = rng.uniform(-1, 1, size=(30, 3))
        self.assert_columns_match(polys, X)
        self.assert_columns_match(polys[1:], X[:14])
        for k, p in enumerate(polys):
            assert PolyBatch(polys)(X)[:, k] == pytest.approx([p.eval(x) for x in X], abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PolyBatch([Poly.variable(2, 0)])(np.zeros((4, 3)))


def table_reference(mt, points):
    """MonomialTable.table as a gather from the (n, nvars, powers) array, one
    variable at a time."""
    pts = np.ascontiguousarray(points, dtype=float)
    pows = pts[:, :, None] ** mt.powers
    table = np.empty((len(pts), mt.exps.shape[1]))
    table[...] = pows[:, 0, mt.exps[0]] if mt.nvars else 1.0
    for i in range(1, mt.nvars):
        table *= pows[:, i, mt.exps[i]]
    return table


class TestMonomialTable:
    """The table takes each variable's factor from the flattened powers and
    multiplies them in variable order: the same bytes as the 3-D gather."""

    def assert_matches(self, mt, X):
        got = mt.table(X)
        assert got.flags.c_contiguous and got.shape == (len(X), mt.exps.shape[1])
        assert got.tobytes() == table_reference(mt, X).tobytes()

    @pytest.mark.parametrize("nvars", range(7))
    def test_matches_the_3d_gather(self, nvars):
        rng = np.random.default_rng(400 + nvars)
        for degree in range(8):
            exps = polycore.exponent_array(degree, nvars)
            # every monomial, and a shuffled part of them
            part = exps[rng.permutation(len(exps))[:max(1, len(exps) // 3)]]
            for mt in (polycore.MonomialTable(exps), polycore.MonomialTable(part)):
                for n in (0, 1, 3, 7, 33, 128):
                    X = rng.uniform(-1.5, 1.5, size=(n, nvars))
                    X[rng.random(X.shape) < 0.1] = 0.0
                    self.assert_matches(mt, X)

    def test_simplex_grid_at_48(self):
        from chebydev.domains import simplex
        from chebydev.supnorm import sample_domain
        X = sample_domain(simplex(3), 48)
        assert len(X) == 20825
        self.assert_matches(polycore.MonomialTable(polycore.exponent_array(6, 3)), X)


def constructor_reference(nvars, terms, field):
    """The terms the Poly constructor keeps, converted one by one: exponents
    re-tupled as ints and checked, coefficients coerced into the field; float
    terms then sorted into graded order."""
    clean = {}
    for exp, coef in terms.items():
        ints = tuple(int(e) for e in exp)
        if ints != tuple(exp):
            raise PolyError(f"non-integral exponent in {exp}")
        if len(ints) != nvars:
            raise DimensionMismatchError(
                f"exponent {ints} has length {len(ints)}, expected {nvars}")
        if any(e < 0 for e in ints):
            raise PolyError(f"negative exponent in {ints}")
        if field == FLOAT64:
            c = float(coef)
        elif isinstance(coef, Rational):
            c = Fraction(coef)
        else:
            raise FieldMismatchError(f"cannot use {coef!r} as an exact rational coefficient")
        if c != 0:
            clean[ints] = c
    if field == FLOAT64:
        clean = dict(sorted(clean.items(), key=lambda kv: (sum(kv[0]), kv[0])))
    return clean


class TestConstructorInput:
    def typed(self, terms):
        return [(tuple(map(type, e)), e, type(c), c) for e, c in terms.items()]

    @pytest.mark.parametrize("field", ["rational", FLOAT64])
    def test_non_canonical_input_is_converted(self, field):
        inputs = [
            {(True, False): 3, (0, 2): Fraction(1, 2)},
            {(np.int64(2), np.int64(0)): 1, (1, 1): -2},
            {(1, 0): 2, (0, 1): Fraction(-3, 4), (0, 0): True, (2, 2): 0, (3, 0): Fraction(0)},
            {(2.0, 1): 5},
            {(1, 0): Fraction(5), (0, 1): 7},
        ]
        if field == FLOAT64:
            inputs.append({(1, 0): np.float64(0.25), (0, 1): 1.5, (1, 1): -0.0})
        for terms in inputs:
            p = Poly(2, terms, field)
            assert self.typed(p.terms) == self.typed(constructor_reference(2, terms, field))
            assert {type(c) for c in p.terms.values()} <= {Fraction if field != FLOAT64 else float}

    def test_float_coefficient_in_the_rational_field_is_rejected(self):
        for coef in (np.float64(0.5), 0.5):
            with pytest.raises(FieldMismatchError, match="exact rational coefficient"):
                Poly(2, {(1, 0): coef})

    @pytest.mark.parametrize("field", ["rational", FLOAT64])
    @pytest.mark.parametrize("exp, error", [
        ((1, -1), PolyError), ((-1, np.int64(0)), PolyError),
        ((1.5, 0), PolyError), ((1.5, -1), PolyError),
        ((1, 0, 0), DimensionMismatchError), ((-1, 0, 0), DimensionMismatchError),
        ((True,), DimensionMismatchError),
    ])
    def test_invalid_exponents_raise_as_before(self, field, exp, error):
        with pytest.raises(error) as want:
            constructor_reference(2, {exp: 1}, field)
        with pytest.raises(error) as got:
            Poly(2, {exp: 1}, field)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_canonical_input_is_kept(self):
        c = Fraction(2, 3)
        p = Poly(2, {(1, 0): c, (0, 0): Fraction(0)})
        assert list(p.terms) == [(1, 0)] and p.terms[(1, 0)] == c
        q = Poly(2, {(1, 0): 0.5, (0, 1): 0.0}, FLOAT64)
        assert self.typed(q.terms) == [((int, int), (1, 0), float, 0.5)]


class TestArithmetic:
    def test_binomial_square(self):
        x1 = Poly.variable(2, 0)
        x2 = Poly.variable(2, 1)
        sq = (x1 + x2) ** 2
        assert sq == x1 * x1 + 2 * x1 * x2 + x2 * x2

    def test_r3_from_e_basis_matches_expanded_monomials(self):
        # same polynomial assembled two ways: e_k combination vs raw monomials
        r3 = build_t3(3)
        x = [Poly.variable(3, i) for i in range(3)]
        s = x[0] + x[1] + x[2]
        expanded = (72 * x[0] * x[1] * x[2] - 4 * s + 4 * s * s
                    - 8 * (x[0] * x[1] + x[1] * x[2] + x[0] * x[2]) + 1)
        assert poly_equal(r3, expanded, 0)

    def test_cancellation_empty_terms(self):
        p = build_t3(3)
        z = p - p
        assert z.is_zero() and z.terms == {}
        assert z.degree() == -math.inf

    def test_product_term_order(self):
        # first reached, first stored; t^3 cancels midway and keeps its place
        a = Poly(1, {(3,): -1, (0,): -1, (1,): -1})
        b = Poly(1, {(3,): 1, (2,): -1, (0,): -1})
        assert list((a * b).terms.items()) == [
            ((6,), -1), ((5,), 1), ((3,), 1), ((2,), 1), ((0,), 1), ((4,), -1), ((1,), 1)]

    def test_mixed_field_rejected(self):
        p = elementary_symmetric(2, 3)
        with pytest.raises(FieldMismatchError):
            _ = p + p.to_float64()
        with pytest.raises(FieldMismatchError):
            _ = p * 0.5

    def test_ring_axioms_fuzzed(self):
        # associativity and distributivity over >= 1000 random small cases
        rng = random.Random(12345)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exp = tuple(rng.randint(0, 2) for _ in range(3))
                terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return Poly(3, terms)

        for _ in range(1000):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
        # multiplication commutes and respects evaluation on a spot check
        a, b = rand_poly(), rand_poly()
        assert a * b == b * a


def compose_reference(p, inners):
    """sum coef * prod inners[i]^e_i in Poly operators, each power built one
    factor at a time, terms in graded order."""
    m, field = inners[0].nvars, p.field
    total = Poly.zero(m, field)
    for exp, coef in p.sorted_terms():
        term = Poly.constant(m, coef, field)
        for q, e in zip(inners, exp):
            if e:
                power = Poly.constant(m, 1, field)
                for _ in range(e):
                    power = power * q
                term = term * power
        total = total + term
    return total


def typed_items(p):
    return [(exp, type(c), c) for exp, c in p.terms.items()]


class TestCompose:
    def random_poly(self, rng, nvars, field, top):
        coefs = ([1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2), Fraction(4, 2)]
                 if field == "rational" else [1.0, -1.0, 0.1, -0.3, 2.5, 1e-3, 1 / 3])
        terms = {tuple(rng.randint(0, top) for _ in range(nvars)): rng.choice(coefs)
                 for _ in range(rng.randint(1, 6))}
        return Poly(nvars, terms, field)

    @pytest.mark.parametrize("field", ["rational", FLOAT64])
    def test_same_terms_order_and_types_as_operators(self, field):
        rng = random.Random(2024)
        for _ in range(300):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            p = self.random_poly(rng, n, field, 3)
            inners = [self.random_poly(rng, m, field, 2) for _ in range(n)]
            got, want = typed_items(p.compose(inners)), typed_items(compose_reference(p, inners))
            if field == "rational":
                # exact terms keep insertion order, which no exact result reads
                got, want = sorted(got), sorted(want)
            assert got == want

    def test_exact_integers_stay_fractions(self):
        x = Poly.variable(2, 0)
        out = Poly.monomial((3, 1)).compose([2 * x - 1, x + Fraction(1, 2)])
        assert all(type(c) is Fraction for c in out.terms.values())
        assert typed_items(out) == typed_items(compose_reference(
            Poly.monomial((3, 1)), [2 * x - 1, x + Fraction(1, 2)]))


class TestCalculus:
    def test_partial_of_product(self):
        p = Poly.monomial((1, 1, 1))
        assert p.partial(0) == Poly.monomial((0, 1, 1))

    def test_r3_interior_critical_point(self):
        # solving the symmetric system 72 x_j x_k + 8 x_i = 4 by hand gives the
        # exact interior critical orbit (1/9, 1/9, 7/18); the center of the
        # sum = 1 face is a critical point only of the face restriction
        r3 = build_t3(3)
        pt = (Fraction(1, 9), Fraction(1, 9), Fraction(7, 18))
        for i in range(3):
            assert r3.partial(i).eval(pt) == 0
        assert r3.partial(0).eval((third(), third(), third())) == Fraction(20, 3)

    def test_partial_of_constant(self):
        assert Poly.constant(3, 5).partial(1).is_zero()

    def test_partial_index_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            build_t3(3).partial(3)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_laplacian_of_td_is_constant(self, d):
        # the family has constant Laplacian 8 d (-1)^(d-1); in particular the
        # sign alternates, which is what the boundary-maximum argument needs
        lap = laplacian(build_td(d).polynomial)
        assert lap == Poly.constant(d, 8 * d * (-1) ** (d - 1))

    def test_laplacian_of_square(self):
        assert laplacian(Poly.monomial((2,))) == Poly.constant(1, 2)

    def test_partial_matches_finite_differences(self):
        rng = random.Random(7)
        for _ in range(20):
            terms = {tuple(rng.randint(0, 3) for _ in range(3)):
                     rng.uniform(-2, 2) for _ in range(5)}
            p = Poly(3, terms, "float64")
            x = np.array([rng.uniform(0.2, 0.8) for _ in range(3)])
            h = 1e-5
            for i in range(3):
                step = np.zeros(3)
                step[i] = h
                fd = (p.eval(x + step) - p.eval(x - step)) / (2 * h)
                exact = p.partial(i).eval(x)
                assert fd == pytest.approx(exact, rel=1e-6, abs=1e-7)


class TestRealRoots:
    def test_chebyshev_roots_in_closed_form(self):
        # T_5 vanishes at cos((2k+1) pi / 10), k = 0..4
        got = real_roots(chebyshev_t(5), -1.5, 1.5)
        want = sorted(math.cos((2 * k + 1) * math.pi / 10) for k in range(5))
        assert len(got) == 5
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15

    def test_zero_at_a_scan_point_is_a_root(self):
        x = Poly.variable(1, 0, FLOAT64)
        assert real_roots(x * (x - 1), 0.0, 0.5) == [0.0]

    def test_needs_one_variable(self):
        with pytest.raises(DimensionMismatchError):
            real_roots(Poly.variable(2, 0), 0.0, 1.0)

    def test_zero_polynomial_raises(self):
        # every point is a root: no finite list answers
        with pytest.raises(PolyError, match="zero polynomial"):
            real_roots(Poly.zero(1, FLOAT64), 0.0, 1.0)


class TestRestriction:
    @pytest.mark.parametrize("d", range(4, 9))
    def test_zero_face_gives_negated_lower_family(self, d):
        td = build_td(d).polynomial
        lower = build_td(d - 1).polynomial
        assert restrict_zero(td, d - 1) == -lower

    def test_r3_zero_face_closed_form(self):
        got = restrict_zero(build_t3(3), 2)
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        want = (1 - 2 * x) ** 2 + (1 - 2 * y) ** 2 - 1
        assert got == want

    def test_affine_face_and_edge_of_u3(self):
        u3 = restrict_affine_last(build_t3(3))
        assert u3 == build_u3()
        edge = restrict_zero(u3, 1)
        x = Poly.variable(1, 0)
        assert edge == 8 * x ** 2 - 8 * x + 1
        # the edge value is the degree-2 Chebyshev polynomial in 2x - 1
        assert edge == chebyshev_t_shifted(2)

    def test_restriction_commutes_with_evaluation(self):
        rng = random.Random(3)
        for _ in range(50):
            terms = {tuple(rng.randint(0, 2) for _ in range(3)):
                     Fraction(rng.randint(-3, 3)) for _ in range(4)}
            p = Poly(3, terms)
            i = rng.randrange(3)
            y = (Fraction(rng.randint(-2, 2), 3), Fraction(rng.randint(-2, 2), 3))
            assert restrict_zero(p, i).eval(y) == p.eval(insert_zero(y, i))


class TestEquality:
    def test_exponent_key_canonical(self):
        assert Poly(2, {(1, 1): 1}) == Poly(2, {(1, 1): Fraction(2, 2)})

    @pytest.mark.parametrize("terms", [{(1.5,): 1}, {(1.5,): 1, (1,): 2}, {(Fraction(1, 2),): 1}])
    def test_non_integral_exponent_raises(self, terms):
        with pytest.raises(PolyError, match="non-integral"):
            Poly(1, terms)

    def test_integral_float_exponent_is_an_int(self):
        p = Poly(2, {(1.0, 2.0): 3, (0, 0): 0})
        assert p.terms == {(1, 2): 3} and all(type(e) is int for e in next(iter(p.terms)))

    def test_shifted_chebyshev_expansion(self):
        t2 = chebyshev_t(2)
        x = Poly.variable(1, 0)
        assert poly_equal(t2.compose([2 * x - 1]), 8 * x ** 2 - 8 * x + 1, 0)

    def test_float_tolerance(self):
        a = Poly(1, {(1,): 1.0}, "float64")
        b = Poly(1, {(1,): 1.0 + 5e-10}, "float64")
        assert poly_equal(a, b, 1e-9)
        assert not poly_equal(a, b, 1e-11)
        assert max_coefficient_difference(a, b) == pytest.approx(5e-10)


class TestJson:
    def test_round_trip_rational(self):
        p = build_td(4).polynomial
        blob = poly_to_json_dict(p)
        assert blob["field"] == "rational"
        assert poly_from_json_dict(blob) == p
        # graded-lex order of terms: degrees ascending, lex within a degree
        degs = [sum(t["exp"]) for t in blob["terms"]]
        assert degs == sorted(degs)

    def test_round_trip_float(self):
        p = build_t3(3).to_float64()
        assert poly_from_json_dict(poly_to_json_dict(p)) == p

    def test_zero_polynomial(self):
        z = Poly.zero(3)
        assert poly_from_json_dict(poly_to_json_dict(z)) == z

    def test_float_to_rational_not_provided(self):
        assert not hasattr(Poly, "to_rational")
