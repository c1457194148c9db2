import math
import random
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest

from chebydev import signatures

from chebydev.constructions import build_td, compute_rd, derive_r5_constants
from chebydev.domains import simplex
from chebydev.polycore import Poly, PolyError
from chebydev.symfun import partitions_upto
from chebydev.signatures import (
    Certificate, SignedPointSet, annihilation_residual, build_extremal_sets,
    build_l_functional, certificate_from_json_dict, certificate_to_json_dict,
    certify_lower_bound, check_annihilation, combi_identity, cubature_check,
    monomial_exponents, orbit, r5_diagonal_parameters, r5_extremal_sets,
    r5_signature, solve_signature_weights, triangle_monomial_integral,
    uniform_support_point,
)


@pytest.fixture(scope="module")
def consts():
    return derive_r5_constants()


def _float_points(points):
    return [tuple(float(c) for c in p) for p in points]


class TestOrbit:
    def test_sizes(self):
        assert len(orbit((1, 0, 0))) == 3
        assert len(orbit((0.2, 0.2, 0.6))) == 3
        assert len(orbit((Fraction(1, 4),) * 4)) == 1
        assert len(orbit((1, 2, 3))) == 6

    def test_canonical_order_and_dedup(self):
        o = orbit((0, 1, 0))
        assert o == sorted(o) and len(set(o)) == 3

    @pytest.mark.parametrize("d", range(3, 10))
    def test_uniform_points_match_sorted_permutation_set(self, d):
        # The reference permutes the coordinates' ranks, 0 for 0 and 1 for
        # 1/j: hashing 9! tuples of Fractions per point takes seconds, and
        # the rank map keeps order and equality, so mapping the sorted rank
        # set back gives sorted(set(permutations(base))).  repr compares the
        # coordinates' types and values too.
        for j in range(1, d + 1):
            base = uniform_support_point(j, d)
            value = {1: base[0], 0: base[-1]}
            ranks = (1,) * j + (0,) * (d - j)
            want = [tuple(value[r] for r in p) for p in sorted(set(permutations(ranks)))]
            assert repr(orbit(base)) == repr(want)
            assert len(orbit(base)) == comb(d, j)

    def test_r5_float_orbits_match_sorted_permutation_set(self, consts):
        t_plus, t_minus = r5_diagonal_parameters(consts)
        s = math.sqrt(2.0)
        bases = [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.5, 0.5, 0.0),
                 (t_plus, t_plus, 1 - 2 * t_plus), ((2 - s) / 4, (2 + s) / 4, 0.0),
                 (t_minus, t_minus, 1 - 2 * t_minus)]
        for base in bases:
            assert repr(orbit(base)) == repr(sorted(set(permutations(base))))

    @pytest.mark.parametrize("base", [
        (), (5,), (0, 0, 0), (2, 1, 2, 1), (0, 3, 0, 3, 0),
        (Fraction(1, 3), 0, Fraction(1, 3), 0),
        (0, Fraction(0), 1, Fraction(1, 2), 1),
        (1, Fraction(1), 0, Fraction(2, 3)),
    ])
    def test_multisets_match_sorted_permutation_set(self, base):
        # an int and an equal Fraction are one set element, so only the
        # values are compared: which of the two the set keeps depends on
        # the order permutations() yields them in
        assert orbit(base) == sorted(set(permutations(base)))


class TestExtremalSets:
    def test_d3_matches_known_sets(self):
        s_plus, s_minus = build_extremal_sets(3)
        third = Fraction(1, 3)
        half = Fraction(1, 2)
        assert set(s_plus) == {(third, third, third)} | set(orbit((1, 0, 0)))
        assert set(s_minus) == set(orbit((half, half, 0)))

    def test_d4_sizes(self):
        s_plus, s_minus = build_extremal_sets(4)
        assert len(s_plus) == 1 + 6       # uniform point and the 1/2-pairs
        assert len(s_minus) == 4 + 4      # 1/3-triples and vertices

    @pytest.mark.parametrize("d", range(3, 9))
    def test_family_values_exactly_pm_one(self, d):
        td = build_td(d).polynomial
        s_plus, s_minus = build_extremal_sets(d)
        for p in s_plus:
            assert td.eval(p) == 1
        for p in s_minus:
            assert td.eval(p) == -1

    @pytest.mark.parametrize("d", range(3, 9))
    def test_all_points_on_the_sum_face(self, d):
        s_plus, s_minus = build_extremal_sets(d)
        for p in s_plus + s_minus:
            assert sum(p) == 1


class TestAnnihilatingFunctional:
    def test_d3_weights_match_the_two_rule_split(self):
        # the functional is 12 * (positive rule - negative rule) with node
        # weights 3/4, 1/12, 1/3: per point 9, 1, 4 with alternating signs
        L = build_l_functional(3)
        by_rep = {}
        for p, s, w in zip(L.points, L.signs, L.weights):
            by_rep[tuple(sorted(p))] = (s, w)
        third, half = Fraction(1, 3), Fraction(1, 2)
        assert by_rep[(third, third, third)] == (1, 9)
        assert by_rep[(0, half, half)] == (-1, 4)
        assert by_rep[(0, 0, 1)] == (1, 1)
        assert {w / 12 for _, w in by_rep.values()} == {
            Fraction(1, 12), Fraction(1, 3), Fraction(3, 4)}

    @pytest.mark.parametrize("d", range(3, 9))
    def test_annihilates_one_degree_below(self, d):
        L = build_l_functional(d)
        assert check_annihilation(L, d - 1, d)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_top_product_not_annihilated(self, d):
        # only the all-nonzero support point contributes to x_1 ... x_d, so
        # the signed sum there is d^{d-1} / d^d = 1/d != 0
        L = build_l_functional(d)
        total = sum(s * w * math.prod(p)
                    for p, s, w in zip(L.points, L.signs, L.weights))
        assert total == Fraction(1, d)
        assert not check_annihilation(L, d, d)

    def test_dropping_an_orbit_breaks_annihilation(self):
        L = build_l_functional(3)
        keep = [i for i, p in enumerate(L.points) if sorted(p) != [0, 0, 1]]
        broken = SignedPointSet([L.points[i] for i in keep],
                                [L.signs[i] for i in keep],
                                [L.weights[i] for i in keep])
        assert not check_annihilation(broken, 2, 3)

    @pytest.mark.parametrize("d", [4, 5])
    def test_residual_in_both_fields(self, d):
        L = build_l_functional(d)
        exact = annihilation_residual(L, d - 1, d)
        assert isinstance(exact, Fraction) and exact == 0
        Lf = SignedPointSet(_float_points(L.points), L.signs, [float(w) for w in L.weights])
        assert annihilation_residual(Lf, d - 1, d) <= 1e-12 * sum(Lf.weights)

    def test_rational_residual_is_the_largest_exact_sum(self):
        # the integer-scaled sums of degree k carry a factor m^k wden, which
        # the residual takes out; checked against the direct Fraction sums
        def direct(sps, n, d):
            return max(abs(sum(s * w * math.prod(c ** e for c, e in zip(p, mon))
                               for p, s, w in zip(sps.points, sps.signs, sps.weights)))
                       for mon in monomial_exponents(n, d))

        half = SignedPointSet([(Fraction(1, 2),), (Fraction(1, 4),)], [1, -1],
                              [Fraction(1, 3)] * 2)
        assert annihilation_residual(half, 2, 1) == Fraction(1, 12)
        rng = random.Random(26)
        sets = [(build_l_functional(d), n, d) for d in (3, 4) for n in (d - 1, d)]
        for _ in range(12):
            d, size = rng.randint(1, 4), rng.randint(1, 6)
            points = list(dict.fromkeys(
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d))
                for _ in range(size)))
            signs = [rng.choice((1, -1)) for _ in points]
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
            sets.append((SignedPointSet(points, signs, weights), rng.randint(0, 4), d))
        for sps, n, d in sets:
            assert annihilation_residual(sps, n, d) == direct(sps, n, d)
        assert sum(annihilation_residual(*case) == 0 for case in sets) == 2

    def test_r5_functional_annihilates_degree_5(self, consts):
        sig = r5_signature(consts)
        scale = sum(sig.weights)
        resid4 = annihilation_residual(sig, 4, 3)
        resid5 = annihilation_residual(sig, 5, 3)
        assert resid4 <= 1e-6 * scale
        assert resid5 <= 1e-6 * scale
        assert check_annihilation(sig, 4, 3, tol=1e-8)

    def test_orbit_reduction_is_lossless(self):
        # full-set annihilation residual equals the orbit-collapsed residual
        # computed against symmetrized monomials, for random symmetric sets
        rng = random.Random(5)
        for _ in range(10):
            reps, weights, signs = [], [], []
            pts, psigns, pweights = [], [], []
            for _ in range(3):
                base = tuple(Fraction(rng.randint(0, 3), 4) for _ in range(3))
                orb = orbit(base)
                if any(tuple(sorted(base)) == r for r in reps):
                    continue
                reps.append(tuple(sorted(base)))
                w = Fraction(rng.randint(1, 5), 7)
                s = rng.choice((1, -1))
                weights.append(w)
                signs.append(s)
                pts.extend(orb)
                psigns.extend([s] * len(orb))
                pweights.extend([w] * len(orb))
            sps = SignedPointSet(pts, psigns, pweights)
            full = annihilation_residual(sps, 3, 3)
            # orbit-collapsed check over symmetrized monomials
            collapsed_zero = True
            for mon in monomial_exponents(3, 3):
                acc = Fraction(0)
                for rep, w, s in zip(reps, weights, signs):
                    for q in orbit(rep):
                        term = Fraction(1)
                        for c, e in zip(q, mon):
                            term *= Fraction(c) ** e
                        acc += s * w * term
                if acc != 0:
                    collapsed_zero = False
                    break
            assert (full == 0) == collapsed_zero


class TestSolveWeights:
    def test_r3_recovers_normalized_rule_weights(self):
        s_plus, s_minus = build_extremal_sets(3)
        sol = solve_signature_weights(s_plus, s_minus, 2, 3)
        assert sol.feasible
        got = {tuple(sorted(r)): w for r, w in zip(sol.orbit_reps, sol.orbit_weights)}
        third, half = Fraction(1, 3), Fraction(1, 2)
        assert got[(third, third, third)] == Fraction(3, 8)
        assert got[(0, 0, 1)] == Fraction(1, 24)
        assert got[(0, half, half)] == Fraction(1, 6)
        assert sum(w * s for w, s in zip(sol.orbit_weights, sol.orbit_sizes)) == 1

    def test_r5_touch_point_is_the_exact_critical_point(self, consts):
        # t_minus is the root in (0.4, 0.5) of the derivative of
        # 2b x (1-2x)(1-3x)^2 (9x+d)^2, with b and d taken exactly as floats
        x = Poly.variable(1, 0)
        b, droot = Fraction(consts.b), Fraction(consts.d_root)
        dprod = (2 * b * x * (1 - 2 * x) * (1 - 3 * x) ** 2
                 * (9 * x + droot) ** 2).partial(0)
        lo, hi = Fraction(2, 5), Fraction(1, 2)
        assert dprod.eval((lo,)) > 0 > dprod.eval((hi,))
        while hi - lo > Fraction(1, 2 ** 60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if dprod.eval((mid,)) > 0 else (lo, mid)
        _, t_minus = r5_diagonal_parameters(consts)
        assert abs(t_minus - float(lo)) < 1e-14

    def test_r5_recovers_published_constants(self, consts):
        published = {
            "center": 0.0997251873, "vertex": 0.0097228135, "half": 0.0621246411,
            "diag_plus": 0.0615774830, "edge": 0.0243979796, "diag_minus": 0.1178707075,
        }
        t_plus, t_minus = r5_diagonal_parameters(consts)
        s_plus, s_minus = r5_extremal_sets(consts)
        sol = solve_signature_weights(s_plus, s_minus, 4, 3)
        assert sol.feasible
        assert sol.base_nullspace_dim == 2       # degree-4 system leaves a line
        assert sol.extension_degree == 5         # degree-5 conditions pick the ray
        def weight_of(rep_sorted):
            for rep, w in zip(sol.orbit_reps, sol.orbit_weights):
                if max(abs(a - b) for a, b in zip(sorted(rep), rep_sorted)) < 1e-9:
                    return w
            raise AssertionError(f"orbit {rep_sorted} missing")
        sq = math.sqrt(2.0)
        checks = {
            "center": (1 / 3, 1 / 3, 1 / 3),
            "vertex": (0.0, 0.0, 1.0),
            "half": (0.0, 0.5, 0.5),
            "diag_plus": tuple(sorted((t_plus, t_plus, 1 - 2 * t_plus))),
            "edge": (0.0, (2 - sq) / 4, (2 + sq) / 4),
            "diag_minus": tuple(sorted((t_minus, t_minus, 1 - 2 * t_minus))),
        }
        for name, rep in checks.items():
            assert weight_of(rep) == pytest.approx(published[name], abs=1e-5)

    def test_one_degree_too_high_is_infeasible(self):
        s_plus, s_minus = build_extremal_sets(3)
        sol = solve_signature_weights(s_plus, s_minus, 3, 3)
        assert not sol.feasible
        assert sol.reason

    @pytest.mark.parametrize("d", [4, 5])
    def test_recovers_the_functional_weights(self, d):
        s_plus, s_minus = build_extremal_sets(d)
        sol = solve_signature_weights(s_plus, s_minus, d - 1, d)
        L = build_l_functional(d)
        total = sum(L.weights)
        expect = {tuple(sorted(p)): Fraction(w, 1) / total
                  for p, w in zip(L.points, L.weights)}
        assert sol.feasible
        for rep, w in zip(sol.orbit_reps, sol.orbit_weights):
            assert w == expect[tuple(sorted(rep))]

    @pytest.mark.parametrize("d", [4, 5])
    def test_float_ladders_match_the_exact_weights(self, d):
        s_plus, s_minus = build_extremal_sets(d)
        exact = solve_signature_weights(s_plus, s_minus, d - 1, d)
        approx = solve_signature_weights(_float_points(s_plus), _float_points(s_minus),
                                         d - 1, d)
        assert approx.feasible
        assert approx.base_nullspace_dim == exact.base_nullspace_dim
        assert approx.extension_degree == exact.extension_degree
        want = {rep: float(w) for rep, w in
                zip(_float_points(exact.orbit_reps), exact.orbit_weights)}
        got = dict(zip(approx.orbit_reps, approx.orbit_weights))
        assert got.keys() == want.keys()
        assert max(abs(got[rep] - want[rep]) for rep in want) <= 1e-12

    def test_positive_ray_inside_a_two_dimensional_cone(self):
        # at n = 1 the exact T_6 ladders leave a 2-dimensional solution space
        # in which neither basis column is positive, but the cone they span
        # holds positive weights
        s_plus, s_minus = build_extremal_sets(6)
        sol = solve_signature_weights(s_plus, s_minus, 1, 6)
        assert sol.feasible, sol.reason
        assert all(w > 0 for w in sol.orbit_weights)
        assert sum(w * size for w, size in zip(sol.orbit_weights, sol.orbit_sizes)) == 1
        assert sol.residual == 0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_failures_read_the_same_in_both_fields(self, n):
        s_plus, s_minus = build_extremal_sets(3)
        vertices = set(orbit((1, 0, 0)))
        # the vertex orbit on the minus side: the one ray has a negative weight there
        moved = ([p for p in s_plus if p not in vertices],
                 [p for p in s_plus if p in vertices] + s_minus)
        for (plus, minus), reason in ((moved, "non-positive weight on orbits [1]"),
                                      ((s_plus + s_minus, []), "cannot be normalized")):
            exact = solve_signature_weights(plus, minus, n, 3)
            approx = solve_signature_weights(_float_points(plus), _float_points(minus), n, 3)
            assert exact.feasible is False and approx.feasible is False
            assert reason in exact.reason
            assert approx.reason == exact.reason
            # at n = 0 the degree-1 rows are proportional to the constant row,
            # so the float extension must not keep rounding noise as rank
            assert approx.extension_degree == exact.extension_degree

    @pytest.mark.parametrize("d", range(3, 9))
    def test_condition_rows_match_fraction_sums(self, monkeypatch, d):
        # every exact system the solver reduces (A, then each E @ N of the
        # extension) equals the one built from Fraction sums over the orbits
        s_plus, s_minus = build_extremal_sets(d)
        orbits = (signatures._group_orbits(s_plus, 1)
                  + signatures._group_orbits(s_minus, -1))

        def reference(lo, hi):
            rows = [[sg * sum(math.prod([Fraction(c) ** e for c, e in zip(p, part)])
                              for p in pts) for _, pts, sg in orbits]
                    for part in partitions_upto(hi, d) if sum(part) >= lo]
            return np.array(rows, dtype=object)

        reduced = []
        original = signatures._rational_nullspace

        def recorded(M):
            reduced.append((M, original(M)))
            return reduced[-1][1]

        monkeypatch.setattr(signatures, "_rational_nullspace", recorded)
        for n in (1, d - 1):
            reduced.clear()
            sol = solve_signature_weights(s_plus, s_minus, n, d)
            A, N = reduced[0]
            want = reference(0, n)
            assert A.shape == want.shape and (A == want).all()
            assert all(type(v) is Fraction for v in A.flat)
            for k, (M, N2) in enumerate(reduced[1:], n + 1):
                assert (M == reference(k, k) @ N).all()
                N = N @ N2
            assert sol.extension_degree == n + len(reduced) - 1 or not sol.feasible


def _td_certificate(d):
    fam = build_td(d)
    target = Poly.monomial((1,) * d)
    level = Fraction(1, fam.r_value)
    candidate = target - level * fam.polynomial
    return Certificate(target=target, candidate=candidate, level=level,
                       degree=d - 1, support=build_l_functional(d),
                       domain=simplex(d))


class TestCertificates:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_family_certificate_exact(self, d):
        res = certify_lower_bound(_td_certificate(d), tol=0)
        assert res.certified, res.failures
        assert res.asserted_bound == Fraction(1, compute_rd(d))

    def test_r5_certificate(self, consts):
        from chebydev.constructions import build_r5
        level = 1.0 / consts.leading
        target = Poly.monomial((2, 2, 2)).to_float64()
        candidate = target - level * build_r5(consts)
        cert = Certificate(target=target, candidate=candidate, level=level,
                           degree=4, support=r5_signature(consts),
                           domain=simplex(3))
        res = certify_lower_bound(cert, tol=1e-8)
        assert res.certified, res.failures

    def test_flipped_sign_reports_mismatch(self):
        cert = _td_certificate(3)
        flipped = SignedPointSet(cert.support.points,
                                 [-s for s in cert.support.signs],
                                 cert.support.weights)
        bad = Certificate(target=cert.target, candidate=cert.candidate,
                          level=cert.level, degree=cert.degree,
                          support=flipped, domain=cert.domain)
        res = certify_lower_bound(bad, tol=0)
        assert not res.certified
        assert any("sign mismatch" in f for f in res.failures)

    def test_negative_degree_raises(self):
        base = _td_certificate(3)
        with pytest.raises(PolyError, match="degree must be >= 0"):
            annihilation_residual(base.support, -1, 3)
        bad = Certificate(target=base.target, candidate=base.candidate, level=base.level,
                          degree=-1, support=base.support, domain=base.domain)
        with pytest.raises(PolyError, match="degree must be >= 0"):
            certify_lower_bound(bad)

    def test_empty_support_raises(self):
        base = _td_certificate(3)
        with pytest.raises(PolyError, match="support is empty"):
            Certificate(target=base.target, candidate=base.candidate, level=base.level,
                        degree=base.degree, support=SignedPointSet([], [], []),
                        domain=base.domain)

    def test_monotone_in_level(self):
        # certified at r implies failure at every r' > r on the same support
        base = _td_certificate(3)
        rng = random.Random(11)
        for _ in range(10):
            bump = Fraction(rng.randint(1, 50), 1000)
            worse = Certificate(target=base.target, candidate=base.candidate,
                                level=base.level + bump, degree=base.degree,
                                support=base.support, domain=base.domain)
            res = certify_lower_bound(worse, tol=0)
            assert not res.certified

    def test_json_round_trip_bit_exact(self):
        cert = _td_certificate(4)
        blob = certificate_to_json_dict(cert)
        back = certificate_from_json_dict(blob)
        assert back.target == cert.target
        assert back.candidate == cert.candidate
        assert back.level == cert.level
        assert back.support.points == cert.support.points
        assert back.support.weights == cert.support.weights
        assert certificate_to_json_dict(back) == blob


class TestCombiIdentity:
    def test_direct_small_case(self):
        # d=4, k=2: -4 + 24 - 36 + 16 = 0
        assert combi_identity(4, 2) == 0

    @pytest.mark.parametrize("d", range(2, 16))
    def test_vanishing_range(self, d):
        for k in range(1, d):
            assert combi_identity(d, k) == 0

    @pytest.mark.parametrize("d", range(1, 9))
    def test_top_value_is_signed_factorial(self, d):
        assert combi_identity(d, d) == (-1) ** d * math.factorial(d)

    def test_d5_k4(self):
        assert combi_identity(5, 4) == 0


class TestCubature:
    def test_degree2_exactness(self):
        rep = cubature_check()
        assert rep["degree2_exact"]
        rows = {tuple(r["monomial"]): r for r in rep["rows"]}
        assert rows[(0, 0)]["L1"] == 1
        assert rows[(1, 0)]["L1"] == Fraction(1, 3)
        assert rows[(1, 0)]["integral"] == Fraction(1, 3)

    def test_degree3_separation(self):
        rep = cubature_check()
        w = rep["degree3_witness"]
        assert w is not None and w["L1"] != w["L2"]

    def test_monomial_integral(self):
        # normalization check: the triangle has area 1/2
        assert triangle_monomial_integral(0, 0) == Fraction(1, 2)
        assert triangle_monomial_integral(1, 0) == Fraction(1, 6)


class TestFunctionalSplit:
    def test_positive_halves_are_not_degree5_cubature_rules(self, consts):
        # each signed half of the degree-5 annihilating functional is a
        # positive rule on the face, but neither reproduces the (normalized)
        # triangle integral on all of degree <= 5: already x*y separates them
        sig = r5_signature(consts)
        pos_mass = sum(w for w, s in zip(sig.weights, sig.signs) if s > 0)
        for sign_wanted in (1, -1):
            rule = [(p, w / pos_mass) for p, s, w in
                    zip(sig.points, sig.signs, sig.weights) if s == sign_wanted]
            assert abs(sum(w for _, w in rule) - 1.0) < 1e-8
            applied = sum(w * p[0] * p[1] for p, w in rule)
            integral = float(2 * triangle_monomial_integral(1, 1))
            assert abs(applied - integral) > 1e-3
