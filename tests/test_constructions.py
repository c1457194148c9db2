import math
import random
from fractions import Fraction
from math import comb

import pytest

from chebydev import constructions
from chebydev.constructions import (R5_ROOT_BRACKET, build_r5, build_r5_repaired,
                                    build_t3, build_td, build_u3, build_u5,
                                    compute_rd, dd_determinant, derive_r5_constants,
                                    lift_to_ball, prime_factorization, r5_face_defect,
                                    real_roots_of_r5_poly)
from chebydev.polycore import (Poly, PolyError, max_coefficient_difference,
                               poly_equal, restrict_affine_last, restrict_zero)
from chebydev.symfun import chebyshev_t_shifted, elementary_symmetric

# published table of scale constants and their factorizations; the r_11 line
# is reproduced from the value itself (2^14 * 3^3 * 11^2 * 317 * 409 -- the
# factor sometimes quoted as 137 does not divide 6939874934784)
RD_TABLE = {
    3: (72, {2: 3, 3: 2}),
    4: (896, {2: 7, 7: 1}),
    5: (14400, {2: 6, 3: 2, 5: 2}),
    6: (283392, {2: 8, 3: 3, 41: 1}),
    7: (6598144, {2: 9, 7: 2, 263: 1}),
    8: (177373184, {2: 15, 5413: 1}),
    9: (5406289920, {2: 12, 3: 4, 5: 1, 3259: 1}),
    10: (184223744000, {2: 14, 5: 3, 23: 1, 3911: 1}),
    11: (6939874934784, {2: 14, 3: 3, 11: 2, 317: 1, 409: 1}),
}


class TestScaleConstants:
    @pytest.mark.parametrize("d", sorted(RD_TABLE))
    def test_table_values_and_factorizations(self, d):
        value, factors = RD_TABLE[d]
        assert compute_rd(d, "closed_form") == value
        assert prime_factorization(value) == factors
        assert math.prod(p ** e for p, e in factors.items()) == value

    def test_strong_pseudoprime_is_split(self):
        # 3215031751 passes Miller-Rabin to the bases 2, 3, 5 and 7
        assert prime_factorization(3215031751) == {151: 1, 751: 1, 28351: 1}

    @pytest.mark.parametrize("d", range(3, 15))
    def test_closed_form_agrees_with_recursion(self, d):
        assert compute_rd(d, "closed_form") == compute_rd(d, "recursive")

    def test_rejects_small_d(self):
        with pytest.raises(PolyError):
            compute_rd(2)


class TestFamily:
    def test_t3_is_r3(self):
        assert build_td(3).polynomial == build_t3(3)

    def test_t4_explicit_formula(self):
        x = [Poly.variable(4, i) for i in range(4)]
        s = x[0] + x[1] + x[2] + x[3]
        e2 = elementary_symmetric(2, 4)
        e3 = elementary_symmetric(3, 4)
        want = (896 * x[0] * x[1] * x[2] * x[3] - 72 * e3
                + 4 * s - 4 * s * s + 8 * e2 - 1)
        assert build_td(4).polynomial == want

    @pytest.mark.parametrize("d", range(3, 9))
    def test_value_one_at_uniform_point(self, d):
        td = build_td(d).polynomial
        assert td.eval([Fraction(1, d)] * d) == 1

    @pytest.mark.parametrize("d", range(3, 11))
    def test_leading_coefficient_is_rd(self, d):
        td = build_td(d)
        assert td.polynomial.coefficient((1,) * d) == td.r_value == compute_rd(d)

    @pytest.mark.parametrize("d", range(4, 9))
    def test_every_zero_face_recurses(self, d):
        td = build_td(d).polynomial
        lower = build_td(d - 1).polynomial
        for i in range(d):
            assert restrict_zero(td, i) == -lower

    @pytest.mark.parametrize("d", range(3, 13))
    def test_t3_value_at_uniform_point_closed_form(self, d):
        # independent closed form for the base family at (1/d, ..., 1/d)
        val = build_t3(d).eval([Fraction(1, d)] * d)
        assert val == Fraction(9 * d * d - 32 * d + 24, d * d)

    @pytest.mark.parametrize("d", range(4, 11))
    def test_inversion_identity(self, d):
        # sum_{j=k}^{d} d C(d,j) j^{d-1} (-1)^{j-k} C(j,k) j^{-k} = [k == d]
        for k in range(4, d + 1):
            total = sum(
                Fraction(d * comb(d, j) * j ** (d - 1) * (-1) ** (j - k) * comb(j, k),
                         j ** k)
                for j in range(k, d + 1))
            assert total == (1 if k == d else 0)


class TestR5Constants:
    def test_real_roots(self):
        roots = real_roots_of_r5_poly()
        assert len(roots) == 4

    def test_selected_root_and_derived_values(self):
        c = derive_r5_constants()
        assert R5_ROOT_BRACKET[0] < c.d_root < R5_ROOT_BRACKET[1]
        assert c.d_root == pytest.approx(-1.208972894, abs=1e-8)
        assert c.a == pytest.approx(28.5926243, abs=1e-6)
        assert c.b == pytest.approx(21.8935834, abs=1e-6)
        assert c.leading == pytest.approx(15960.4223, abs=1e-3)
        # the additive constant is pinned by U_5(1/3, 1/3) = 1
        assert c.c == pytest.approx(32 / 9 + c.a + c.b, abs=1e-12)
        c.validate()

    def test_constants_are_pinned_bit_for_bit(self):
        c = derive_r5_constants()
        assert {k: getattr(c, k).hex() for k in ("d_root", "a", "b", "c", "leading")} == {
            "d_root": "-0x1.357f3f6213324p+0", "a": "0x1.c97b63a8e4876p+4",
            "b": "0x1.5e4c1e2588193p+4", "c": "0x1.b0558803a8176p+5",
            "leading": "0x1.f2c360ec7047ep+13"}


@pytest.fixture(scope="module")
def consts():
    return derive_r5_constants()


class TestR5Family:
    def test_value_one_at_center(self, consts):
        r5 = build_r5(consts)
        assert r5.eval((1 / 3, 1 / 3, 1 / 3)) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_face_formula(self, consts):
        r5 = build_r5(consts)
        x = Poly.variable(2, 0, "float64")
        y = Poly.variable(2, 1, "float64")
        s = x + y
        want = -1 + 2 * s - 2 * s ** 2 + 2 * (1 - 4 * s + 4 * (x ** 2 + y ** 2)) ** 2
        assert poly_equal(restrict_zero(r5, 2), want, 1e-9)

    def test_value_one_at_half_point(self, consts):
        r5 = build_r5(consts)
        assert r5.eval((0.5, 0.5, 0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_u5_is_the_affine_face_of_r5(self, consts):
        u5 = build_u5(consts)
        face = restrict_affine_last(build_r5(consts))
        assert max_coefficient_difference(u5, face) < 1e-9

    def test_u5_edge_is_quartic_chebyshev(self, consts):
        u5 = build_u5(consts)
        edge = restrict_zero(u5, 1)
        want = chebyshev_t_shifted(4).to_float64()
        assert max_coefficient_difference(edge, want) < 1e-8

    def test_u5_diagonal_factorization(self, consts):
        # 1 - U_5(x, x) = x (1-2x) (1-3x)^2 (64 - 54 a x + 27 b x + 162 b x^2)
        u5 = build_u5(consts)
        x = Poly.variable(1, 0, "float64")
        diag = u5.compose([x, x])
        a, b = consts.a, consts.b
        quartic = 64 - 54 * a * x + 27 * b * x + 162 * b * x ** 2
        rhs = x * (1 - 2 * x) * (1 - 3 * x) ** 2 * quartic
        assert max_coefficient_difference(1 - diag, rhs) < 1e-8

    def test_quartic_factor_is_a_perfect_square_form(self, consts):
        x = Poly.variable(1, 0, "float64")
        a, b, droot = consts.a, consts.b, consts.d_root
        quartic = 64 - 54 * a * x + 27 * b * x + 162 * b * x ** 2
        square = 2 * b * (9 * x + droot) ** 2
        assert max_coefficient_difference(quartic, square) < 1e-8

    def test_u3_closed_form(self):
        u3 = build_u3()
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        z = 1 - x - y
        want = 72 * x * y * z - 3 + 4 * (x ** 2 + y ** 2 + z ** 2)
        assert u3 == want


class TestR5FaceDefect:
    """The published closed form of the degree-6 polynomial is NOT bounded by
    1 on the whole simplex: its x_i = 0 faces bulge above 1.  A single
    correction term restores the bound without touching the sum = 1 face."""

    def test_displayed_formula_exceeds_one_on_faces(self, consts):
        defect = r5_face_defect(consts)
        assert defect["exceeds_one"]
        # independent evaluation of the face restriction at the defect point
        r5 = build_r5(consts)
        t = defect["diagonal_parameter"]
        assert abs(r5.eval((t, t, 0.0))) > 1.1
        assert defect["value"] == pytest.approx(1.1008269060311372, abs=1e-9)

    def test_defect_point_is_the_root_of_the_cubic(self, consts):
        # the larger root in (0, 0.5) of 128x^3 - 192x^2 + 76x - 7, the one
        # where the diagonal restriction exceeds 1, by exact bisection
        def cubic(x):
            return 128 * x ** 3 - 192 * x ** 2 + 76 * x - 7

        lo, hi = Fraction(2, 5), Fraction(1, 2)
        assert cubic(lo) > 0 > cubic(hi)
        while hi - lo > Fraction(1, 2 ** 60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cubic(mid) > 0 else (lo, mid)
        t = r5_face_defect(consts)["diagonal_parameter"]
        assert abs(t - float(lo)) < 1e-14

    def test_repaired_polynomial_is_bounded(self, consts):
        from chebydev.domains import simplex
        from chebydev.supnorm import sup_norm
        fixed = build_r5_repaired(consts)
        rep = sup_norm(fixed, simplex(3), 16, seed=0)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_repair_preserves_face_and_center_values(self, consts):
        fixed = build_r5_repaired(consts)
        r5 = build_r5(consts)
        # the correction vanishes on sum x_i = 1 and at the origin
        assert max_coefficient_difference(
            restrict_affine_last(fixed), restrict_affine_last(r5)) < 1e-9
        assert fixed.eval((0.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_repaired_face_diagonal_identity(self, consts):
        # on the x_3 = 0 face diagonal: 1 - value = 4x (2x-1)^2 (7 - 10x - 4x^2)
        fixed = build_r5_repaired(consts)
        x = Poly.variable(1, 0, "float64")
        diag = restrict_zero(fixed, 2).compose([x, x])
        rhs = 4 * x * (2 * x - 1) ** 2 * (7 - 10 * x - 4 * x ** 2)
        assert max_coefficient_difference(1 - diag, rhs) < 1e-8


class TestLift:
    def test_monomial(self):
        assert lift_to_ball(Poly.monomial((1, 1, 1))) == Poly.monomial((2, 2, 2))

    def test_structure_even_and_degree(self):
        lifted = lift_to_ball(build_t3(3))
        assert lifted.degree() == 6
        assert all(all(e % 2 == 0 for e in exp) for exp in lifted.terms)

    def test_sup_norm_carries_over(self):
        from chebydev.domains import ball, simplex
        from chebydev.supnorm import sup_norm
        lifted = lift_to_ball(build_t3(3)).to_float64()
        ball_rep = sup_norm(lifted, ball(3), 10, seed=0)
        simplex_rep = sup_norm(build_t3(3).to_float64(), simplex(3), 10, seed=0)
        assert ball_rep.value == pytest.approx(simplex_rep.value, abs=1e-6)
        assert ball_rep.value == pytest.approx(1.0, abs=1e-6)


class TestCached:
    """build_td and derive_r5_constants are pure: each value is built once,
    shared, and exactly what a fresh build gives."""

    @pytest.mark.parametrize("d", range(3, 9))
    def test_build_td_is_built_once(self, d):
        fam, fresh = build_td(d), build_td.__wrapped__(d)
        assert build_td(d) is fam
        assert fam == fresh
        assert list(fam.polynomial.terms.items()) == list(fresh.polynomial.terms.items())

    def test_derive_r5_constants_is_derived_once(self):
        consts, fresh = derive_r5_constants(), derive_r5_constants.__wrapped__()
        assert derive_r5_constants() is consts
        assert consts == fresh and consts.d_root.hex() == fresh.d_root.hex()


def _divide_linear_chain(p, i, j):
    """The reference: synthetic division in x_i through a chain of Poly
    products, carry * x_j passed down one power of x_i at a time."""
    by_deg = {}
    for exp, coef in p.terms.items():
        by_deg.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1:]] = coef
    if not by_deg:
        return Poly.zero(p.nvars, p.field), Poly.zero(p.nvars, p.field)
    xj = Poly.variable(p.nvars, j, p.field)
    xi = Poly.variable(p.nvars, i, p.field)
    coeffs = {e: Poly(p.nvars, t, p.field) for e, t in by_deg.items()}
    zero = Poly.zero(p.nvars, p.field)
    quotient, carry = zero, zero
    for e in range(max(by_deg), 0, -1):
        b = coeffs.get(e, zero) + carry
        quotient = quotient + b * xi ** (e - 1)
        carry = b * xj
    return quotient, coeffs.get(0, zero) + carry


class TestDivideLinear:
    """_divide_linear gives the quotient and remainder of the synthetic
    division, term by term."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_every_pair_of_dd(self, d):
        det = dd_determinant(d)
        for i in range(d):
            for j in range(d):
                if i != j:
                    got = constructions._divide_linear(det, i, j)
                    assert got == _divide_linear_chain(det, i, j), (i, j)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_polynomials_with_a_remainder(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(2, 4)
        p = Poly(nvars, {tuple(rng.randint(0, 4) for _ in range(nvars)):
                         Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(12)})
        i, j = rng.sample(range(nvars), 2)
        quotient, remainder = constructions._divide_linear(p, i, j)
        assert (quotient, remainder) == _divide_linear_chain(p, i, j)
        assert not remainder.is_zero() and all(e[i] == 0 for e in remainder.terms)
        linear = Poly.variable(nvars, i) - Poly.variable(nvars, j)
        assert quotient * linear + remainder == p

    def test_zero(self):
        zero = Poly.zero(3)
        assert constructions._divide_linear(zero, 0, 2) == (zero, zero)
