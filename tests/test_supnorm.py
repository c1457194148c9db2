import hashlib
import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from chebydev.constructions import (build_r5, build_t3, build_td, build_u3, build_u5,
                                    d5_factorized_form, dd_determinant,
                                    derive_r5_constants, vandermonde_factor_report)
from chebydev.domains import BALL, ball, simplex, simplex_face, sphere
from chebydev import bestapprox, cli, polycore, supnorm
from chebydev.polycore import Poly, restrict_zero
from chebydev.signatures import r5_diagonal_parameters
from chebydev.supnorm import (critical_points, dedup_points, level_set, sample_domain,
                              signed_max, sup_norm, verify_td_bound)


@pytest.fixture(scope="module")
def consts():
    return derive_r5_constants()


@pytest.fixture
def full_search(monkeypatch):
    """Search every member of every S_n orbit, as for a non-symmetric input."""
    monkeypatch.setattr(supnorm, "_symmetric", lambda p: False)


def _derivatives(p):
    """The Derivatives of p, from the interior chart of its search plan."""
    plan = supnorm.SearchPlan(p)
    return plan.chart((), False).dmap(plan.M[0])


def _full(monkeypatch, search):
    """search() with the symmetry reduction switched off."""
    with monkeypatch.context() as m:
        m.setattr(supnorm, "_symmetric", lambda p: False)
        return search()


class TestSamplers:
    def test_simplex_lattice_count(self):
        pts = sample_domain(simplex(2), 2)
        assert len(pts) == comb(4, 2)

    @pytest.mark.parametrize("d,m", [(2, 5), (3, 7), (4, 4)])
    def test_simplex_points_feasible(self, d, m):
        pts = sample_domain(simplex(d), m)
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 1 + 1e-12)
        assert len(pts) == comb(m + d, d)

    def test_sphere_points_normalized(self):
        pts = sample_domain(sphere(3), 3)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms - 1)) <= 1e-12

    def test_ball_points_inside(self):
        pts = sample_domain(ball(3), 5)
        assert np.all(np.einsum("ij,ij->i", pts, pts) <= 1 + 1e-12)

    @pytest.mark.parametrize("dom", [simplex(3), ball(2), sphere(3)])
    def test_grids_are_nested(self, dom):
        small = {tuple(np.round(p, 12)) for p in sample_domain(dom, 4)}
        large = {tuple(np.round(p, 12)) for p in sample_domain(dom, 8)}
        assert small <= large


def _reference_unique_rows(pts):
    # reference: the row dedup of np.unique(axis=0)
    rounded = np.round(pts / 1e-12) * 1e-12
    _, idx = np.unique(rounded, axis=0, return_index=True)
    return pts[np.sort(idx)]


def _reference_sample_domain(dom, m):
    # reference: the ball and sphere grids from itertools.product tuples
    d = dom.dimension
    axes = [np.arange(-m, m + 1) / m] * d
    pts = np.array(list(itertools.product(*axes)), dtype=float)
    if dom.kind == BALL:
        return pts[np.einsum("ij,ij->i", pts, pts) <= 1.0 + 1e-12]
    pts = pts[np.einsum("ij,ij->i", pts, pts) > 0]
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return _reference_unique_rows(np.vstack([pts, np.eye(d), -np.eye(d)]))


def _reference_approx_grid(dom, r):
    d = dom.dimension
    diag = np.array(list(itertools.product([1.0, -1.0], repeat=d))) / math.sqrt(d)
    axes = np.vstack([np.eye(d), -np.eye(d)])
    base = (supnorm._sphere_spiral(max(8, 2 * r * r)) if d == 3
            else _reference_sample_domain(dom, r))
    return _reference_unique_rows(np.vstack([base, axes, diag]))


# the largest resolution checked per ambient dimension; it covers the grids the
# benchmark samples: sphere(6)@3, sphere(5)@3, sphere(3)@20 and ball(3)@6, 8, 12
MAX_RESOLUTION = {1: 40, 2: 40, 3: 24, 4: 8, 5: 5, 6: 3}


class TestLatticeBits:
    @pytest.mark.parametrize("dom", [ball(d) for d in range(1, 7)]
                             + [sphere(d) for d in range(2, 7)],
                             ids=lambda dom: f"{dom.kind}{dom.dimension}")
    def test_sample_domain_matches_product_lattice(self, dom):
        for m in range(1, MAX_RESOLUTION[dom.dimension] + 1):
            got, want = sample_domain(dom, m), _reference_sample_domain(dom, m)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("dom", [simplex(d) for d in range(1, 6)]
                             + [simplex_face(d) for d in range(2, 7)],
                             ids=lambda dom: f"{dom.kind}{dom.dimension}")
    def test_simplex_grids_match_the_filtered_product(self, dom):
        # reference: the lexicographic product of 0..m per variable, rows of
        # sum <= m kept, over m
        for m in range(1, 33 if dom.nvars <= 3 else 11):
            want = np.array([e for e in itertools.product(range(m + 1), repeat=dom.nvars)
                             if sum(e) <= m], dtype=float).reshape(-1, dom.nvars) / m
            got = sample_domain(dom, m)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("d,resolutions", [(3, range(1, 50)), (4, range(1, 9)),
                                               (5, range(1, 6))])
    def test_approx_grid_matches_product_lattice(self, d, resolutions):
        for r in resolutions:
            got, want = supnorm.approx_grid(sphere(d), r), _reference_approx_grid(sphere(d), r)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), r

    def test_unique_rows_semantics(self):
        pts = np.array([[0.5, 0.25],
                        [-0.0, 1.0],
                        [0.5 + 3e-13, 0.25],   # equal to row 0 after rounding
                        [0.0, 1.0],            # equal to row 1: -0.0 == 0.0
                        [0.5 + 2e-12, 0.25],   # two rounding steps from row 0
                        [0.125, 0.0]])         # sorts first, was seen last
        # by bytes, so the kept row 1 is the first-seen -0.0, not row 3's 0.0
        assert supnorm._unique_rows(pts).tobytes() == pts[[0, 1, 4, 5]].tobytes()


class TestDedupPoints:
    def test_chain_keeps_first_and_far_end(self):
        # b is within tol of a, c within tol of b but not of a
        pts = [(0.0, 0.0), (0.0, 0.1875), (0.0, 0.375)]
        assert dedup_points(pts, 0.25) == [0, 2]

    def test_distance_exactly_tol_is_dropped(self):
        assert dedup_points([(0.5, 0.5), (0.75, 0.5), (0.5, 0.25)], 0.25) == [0]

    def test_max_norm(self):
        # Euclidean distance sqrt(2) * 0.2 > 0.25, max-norm distance 0.2 <= 0.25
        assert dedup_points([(0.0, 0.0), (0.2, 0.2)], 0.25) == [0]

    def test_empty(self):
        assert dedup_points([]) == []

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(size=(40, 3))
        pts = [tuple(float(v) for v in base[i] + rng.uniform(-2e-8, 2e-8, 3))
               for i in rng.integers(0, 40, 200)]
        kept = []
        for i, p in enumerate(pts):
            if all(max(abs(a - b) for a, b in zip(p, pts[j])) > 1e-8 for j in kept):
                kept.append(i)
        assert dedup_points(pts) == kept
        assert 40 < len(kept) < 200

    def test_one_dimensional_points(self):
        pts = [(0.5,), (0.5 + 1e-9,), (-0.5,), (0.5 + 2e-8,)]
        assert dedup_points(pts) == [0, 2, 3]


class TestSupNorm:
    def test_r3_on_simplex(self):
        rep = sup_norm(build_t3(3).to_float64(), simplex(3), 16, seed=0)
        assert rep.value == pytest.approx(1.0, abs=1e-9)
        # argmax lies in the known extremal configuration
        known = [(1/3, 1/3, 1/3), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5), (0, 0, 0)]
        dist = min(max(abs(a - b) for a, b in zip(rep.argmax, q)) for q in known)
        assert dist < 1e-7

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_coordinate_product_on_sphere(self, d):
        xs = [Poly.variable(d, i, "float64") for i in range(d)]
        prod = xs[0]
        for q in xs[1:]:
            prod = prod * q
        rep = sup_norm(prod, sphere(d), 3, seed=0)
        assert rep.value == pytest.approx(d ** (-d / 2), abs=1e-8)

    def test_constant(self):
        rep = sup_norm(Poly.constant(2, 1).to_float64(), simplex(2), 4, seed=0)
        assert rep.value == pytest.approx(1.0, abs=1e-14)

    def test_value_dominates_grid_and_argmax_feasible(self):
        p = build_td(4).polynomial.to_float64()
        rep = sup_norm(p, simplex(4), 8, seed=0)
        assert rep.value >= rep.grid_value - 1e-12
        assert rep.value >= abs(p.eval(rep.argmax)) - 1e-12
        assert simplex(4).contains(rep.argmax, tol=1e-12)

    def test_grid_value_monotone_in_resolution(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            terms = {tuple(rng.integers(0, 3, 3)): float(rng.normal())
                     for _ in range(6)}
            p = Poly(3, terms, "float64")
            for m in (3, 5):
                v1 = np.max(np.abs(p.eval_grid(sample_domain(simplex(3), m))))
                v2 = np.max(np.abs(p.eval_grid(sample_domain(simplex(3), 2 * m))))
                assert v2 >= v1 - 1e-12


class TestCriticalPoints:
    def test_r3_interior(self, full_search):
        cps = critical_points(build_t3(3).to_float64(), simplex(3), seed=0,
                              interior_only=True)
        assert len(cps) == 4
        assert all(abs(v) < 1 for _, v in cps)
        reps = {tuple(np.round(sorted(pt), 6)) for pt, _ in cps}
        assert tuple(np.round(sorted((1/9, 1/9, 7/18)), 6)) in reps

    def test_r3_interior_orbit_representatives(self):
        # the orbit of (7/18, 1/9, 1/9) and the diagonal point, once each
        cps = critical_points(build_t3(3).to_float64(), simplex(3), seed=0,
                              interior_only=True)
        assert len(cps) == 2
        assert cps[0][0] == pytest.approx((7/18, 1/9, 1/9), abs=1e-10)
        assert cps[1][0][0] == pytest.approx(cps[1][0][2], abs=1e-10)

    def test_u3_face_critical_points(self, full_search):
        u3 = build_u3().to_float64()
        cps = critical_points(u3, simplex(2), seed=0, interior_only=True)
        assert len(cps) == 4
        maxima = [(pt, v) for pt, v in cps if v == pytest.approx(1.0, abs=1e-10)]
        assert len(maxima) == 1
        assert maxima[0][0] == pytest.approx((1/3, 1/3), abs=1e-10)

    def test_u3_face_orbit_representatives(self):
        # (7/9, 1/9) stands for its mirror image (1/9, 7/9)
        cps = critical_points(build_u3().to_float64(), simplex(2), seed=0, interior_only=True)
        assert sorted(np.round(pt, 10).tolist() for pt, _ in cps) == [
            [round(1/9, 10)] * 2, [round(1/3, 10)] * 2, [round(7/9, 10), round(1/9, 10)]]

    def test_u5_diagonal_minus_one_touch(self, consts):
        u5 = build_u5(consts)
        x = Poly.variable(1, 0, "float64")
        diag = u5.compose([x, x])
        cps = critical_points(diag, ball(1), seed=0, interior_only=True)
        touch = [pt for pt, v in cps
                 if v == pytest.approx(-1.0, abs=1e-8) and 0 < pt[0] < 0.5]
        assert touch
        assert touch[0][0] == pytest.approx(0.4588164122, abs=1e-8)
        assert abs(diag.partial(0).eval(touch[0])) < 1e-6


class TestTdBound:
    @pytest.mark.parametrize("d,res", [(3, 16), (4, 12), (5, 10)])
    def test_proved_dimensions(self, d, res):
        rep = verify_td_bound(d, resolution=res, seed=0)
        assert rep["passed"]
        assert not rep["conjecture_mode"]
        assert rep["max_abs_estimate"] == pytest.approx(1.0, abs=1e-9)
        assert rep["zero_face_identity_exact"]

    def test_face_dispatch_is_exact(self):
        td = build_td(4).polynomial
        t3 = build_td(3).polynomial
        assert restrict_zero(td, 3) == -t3

    def test_d3_reproduces_algebraic_extremal_set(self):
        rep = verify_td_bound(3, resolution=16, seed=0)
        chart_extremals = [(1/3, 1/3), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0),
                           (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]
        dist = min(max(abs(a - b) for a, b in zip(rep["sum_face_argmax"], q))
                   for q in chart_extremals)
        assert dist < 1e-7

    def test_each_face_searched_once(self, monkeypatch):
        # only the charts' interiors are searched at every level; the one full
        # search is the face x_i = 0 of T_3, where the origin lies: its three
        # faces are one polynomial, searched once
        searches, sup_norms = [], []
        crit, sup = supnorm.critical_points, supnorm.sup_norm

        def recorded_crit(p, dom, seed=0, interior_only=False):
            searches.append((p, dom, interior_only))
            return crit(p, dom, seed=seed, interior_only=interior_only)

        def recorded_sup(p, dom, *args, **kwargs):
            sup_norms.append((p, dom))
            return sup(p, dom, *args, **kwargs)

        monkeypatch.setattr(supnorm, "critical_points", recorded_crit)
        monkeypatch.setattr(supnorm, "sup_norm", recorded_sup)
        verify_td_bound(6, resolution=8, seed=0)
        t3 = build_td(3).polynomial
        t3_faces = [(restrict_zero(t3, i).to_float64(), simplex(2)) for i in range(3)]
        assert t3_faces[0] == t3_faces[1] == t3_faces[2]
        t3_faces = t3_faces[:1]
        interior = [dom for _, dom, only in searches if only]
        assert sorted(interior, key=lambda dom: dom.dimension) == [
            simplex(k) for k in (2, 3, 3, 4, 4, 5, 5, 6)]
        # sup_norm binds its Poly once and searches the bound plan, whose
        # terms are the Poly's, in the same graded order
        full = [(list(b.terms.items()), dom) for b, dom, only in searches if not only]
        assert full == [(list(q.terms.items()), dom) for q, dom in t3_faces]
        assert [(q.to_float64(), dom) for q, dom in sup_norms] == t3_faces

    @pytest.mark.parametrize("d", [4, 6])
    def test_each_td_built_once(self, monkeypatch, d):
        built = []
        original = supnorm.build_td

        def counted(k):
            built.append(k)
            return original(k)

        monkeypatch.setattr(supnorm, "build_td", counted)
        verify_td_bound(d, resolution=6, seed=0)
        assert sorted(built) == list(range(3, d + 1))

    @pytest.mark.parametrize("d,res", [(3, 16), (4, 12), (5, 10)])
    def test_matches_full_search_of_every_face(self, d, res):
        full = sup_norm(build_td(d).polynomial, simplex(d), res, seed=0)
        rep = verify_td_bound(d, resolution=res, seed=0)
        assert abs(rep["max_abs_estimate"] - full.value) <= 1e-12


class TestSubharmonicity:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_max_attained_on_boundary(self, d):
        p = ((-1) ** (d - 1) * build_td(d).polynomial).to_float64()
        total, boundary = signed_max(p, simplex(d), resolution=max(6, 12 - d), seed=0)
        assert abs(total - boundary) <= 1e-8

    def test_ball_boundary_skips_interior_grid(self):
        p = Poly.constant(2, 1) - Poly.monomial((2, 0)) - Poly.monomial((0, 2))
        total, boundary = signed_max(p, ball(2), 6, seed=0)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert abs(boundary) <= 1e-12
        with pytest.raises(polycore.PolyError):
            signed_max(p, sphere(2), 6, seed=0)


    @pytest.mark.parametrize("d,sign,total,boundary", [
        (3, 1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        (3, -1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        (4, 1, "0x1.0000000000004p+0", "0x1.0000000000004p+0"),
        (4, -1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        (5, 1, "0x1.0000000000008p+0", "0x1.0000000000008p+0"),
        (5, -1, "0x1.0000000000002p+0", "0x1.0000000000002p+0"),
    ])
    def test_signed_max_bits(self, full_search, d, sign, total, boundary):
        """Hex literals recorded on an AVX512_SPR host: they hold per host class (README)."""
        p = (sign * (-1) ** (d - 1) * build_td(d).polynomial).to_float64()
        got = signed_max(p, simplex(d), resolution=max(6, 12 - d), seed=0)
        assert [v.hex() for v in got] == [total, boundary]

    def test_ball_signed_max_bits(self):
        """Hex literals recorded on an AVX512_SPR host: they hold per host class (README)."""
        p = Poly.constant(2, 1) - Poly.monomial((2, 0)) - Poly.monomial((0, 2))
        got = signed_max(p, ball(2), 6, seed=0)
        assert [v.hex() for v in got] == ["0x1.0000000000000p+0", "0x1.1000000000000p-52"]


    @pytest.mark.parametrize("d,sign,total,boundary", [
        (3, 1, "0x1.0000000000006p+0", "0x1.0000000000006p+0"),
        (3, -1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        (4, 1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        (4, -1, "0x1.0000000000002p+0", "0x1.0000000000002p+0"),
        (5, 1, "0x1.0000000000006p+0", "0x1.0000000000006p+0"),
        (5, -1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ])
    def test_signed_max_bits_on_the_chamber(self, d, sign, total, boundary):
        """Hex literals recorded on an AVX512_SPR host: they hold per host class (README)."""
        p = (sign * (-1) ** (d - 1) * build_td(d).polynomial).to_float64()
        got = signed_max(p, simplex(d), resolution=max(6, 12 - d), seed=0)
        assert [v.hex() for v in got] == [total, boundary]


def test_sup_norm_bits(full_search):
    """Hex literals recorded on an AVX512_SPR host: they hold per host class (README)."""
    rep = sup_norm(build_td(4).polynomial, simplex(4), 8)
    assert rep.value.hex() == "0x1.0000000000004p+0"
    assert [v.hex() for v in rep.argmax] == [
        "0x1.5555555559cf4p-2", "0x1.5555555557ea0p-2", "0x0.0p+0", "0x1.555555554e46cp-2"]
    assert rep.grid_value.hex() == "0x1.0000000000000p+0"


def test_sup_norm_bits_on_the_chamber():
    """Hex literals recorded on an AVX512_SPR host: they hold per host class (README)."""
    # the argmax is the centroid of the face sum x = 1, its coordinates non-increasing
    rep = sup_norm(build_td(4).polynomial, simplex(4), 8)
    assert rep.value.hex() == "0x1.0000000000002p+0"
    assert [v.hex() for v in rep.argmax] == [
        "0x1.000000000000ep-2", "0x1.000000000000dp-2", "0x1.ffffffffffffdp-3", "0x1.fffffffffffcfp-3"]
    assert rep.grid_value.hex() == "0x1.0000000000000p+0"


def _nonincreasing_rows(pts):
    return pts[np.all(pts[:, :-1] >= pts[:, 1:], axis=1)]


class TestSymmetric:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_td_is_symmetric(self, d):
        td = build_td(d).polynomial
        assert supnorm._symmetric(td)
        assert supnorm._symmetric(td.to_float64())

    def test_one_ulp_off_is_not_symmetric(self):
        tdf = build_td(4).polynomial.to_float64()
        moved = [e for e in tdf.terms if len(set(e)) > 1]
        assert len(moved) > 10
        for e in moved:
            terms = dict(tdf.terms)
            terms[e] = math.nextafter(terms[e], math.inf)
            assert not supnorm._symmetric(Poly(4, terms, "float64")), e

    def test_fixed_by_the_transposition_only(self):
        # x1^2 x3 + x2^2 x3: (x1 x2) fixes it, the cycle (x1 x2 x3) does not
        p = Poly(3, {(2, 0, 1): 1, (0, 2, 1): 1})
        assert not supnorm._symmetric(p)
        assert not supnorm._symmetric(p.to_float64())

    def test_fixed_by_the_cycle_only(self):
        # x1^2 x2 + x2^2 x3 + x3^2 x1
        assert not supnorm._symmetric(Poly(3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1}))

    @pytest.mark.parametrize("p", [Poly.variable(1, 0), Poly.constant(1, 3),
                                   Poly(1, {(4,): 1.0, (0,): 1.0}, "float64")])
    def test_one_variable_is_never_symmetric(self, p):
        assert not supnorm._symmetric(p)


# the resolutions checked per domain: every m up to the last one
CHAMBER_GRIDS = ([(simplex(d), 10) for d in range(2, 6)] + [(simplex_face(4), 8)]
                 + [(ball(d), 8) for d in range(2, 5)]
                 + [(sphere(2), 20), (sphere(3), 12), (sphere(4), 6), (sphere(5), 4),
                    (sphere(6), 3)])


class TestChamberGrid:
    @pytest.mark.parametrize("dom,top", CHAMBER_GRIDS,
                             ids=[f"{dom.kind}{dom.dimension}@1..{top}" for dom, top in CHAMBER_GRIDS])
    def test_equals_the_nonincreasing_rows_of_the_grid(self, dom, top):
        for m in range(1, top + 1):
            got, want = supnorm._chamber_grid(dom, m), _nonincreasing_rows(sample_domain(dom, m))
            assert {r.tobytes() for r in got} == {r.tobytes() for r in want}, m
            # in the grid's own order too, so the first maximum is the same row
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("dom", [simplex(3), simplex(5), ball(3), sphere(3), sphere(4)],
                             ids=lambda dom: f"{dom.kind}{dom.dimension}")
    def test_chambers_are_nested(self, dom):
        for m in (1, 2, 3, 4):
            small = {tuple(np.round(p, 12)) for p in supnorm._chamber_grid(dom, m)}
            large = {tuple(np.round(p, 12)) for p in supnorm._chamber_grid(dom, 2 * m)}
            assert small <= large, m

    def test_the_input_decides(self):
        td = build_td(4).polynomial.to_float64()
        lopsided = td + Poly.monomial((1, 0, 0, 0)).to_float64()
        assert supnorm._grid_values(td, simplex(4), 6)[0].tobytes() == \
            supnorm._chamber_grid(simplex(4), 6).tobytes()
        assert supnorm._grid_values(lopsided, simplex(4), 6)[0].tobytes() == \
            sample_domain(simplex(4), 6).tobytes()

    def test_resolution_below_one_raises(self):
        with pytest.raises(polycore.PolyError):
            supnorm._chamber_grid(ball(3), 0)


class TestChamberSearch:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_verify_td_bound_matches_the_full_search(self, monkeypatch, d):
        res = max(6, 14 - d)
        got = verify_td_bound(d, resolution=res, seed=0)
        want = _full(monkeypatch, lambda: verify_td_bound(d, resolution=res, seed=0))
        assert got["max_abs_estimate"] == pytest.approx(want["max_abs_estimate"], rel=1e-12)
        # Newton stops at |grad| <= 1e-11 max|coef| (6.6e-5 for T_7), so the
        # interior values reproduce only to about that level
        assert got["interior_max_abs"] == pytest.approx(want["interior_max_abs"], abs=1e-8)
        assert got["sum_face_sup"] == pytest.approx(want["sum_face_sup"], abs=1e-8)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_sphere_product_matches_the_full_search(self, monkeypatch, d):
        prod = Poly.monomial((1,) * d).to_float64()
        got = sup_norm(prod, sphere(d), 3, seed=0)
        want = _full(monkeypatch, lambda: sup_norm(prod, sphere(d), 3, seed=0))
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.grid_value == pytest.approx(want.grid_value, rel=1e-14)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_signed_max_matches_the_full_search(self, monkeypatch, d, sign):
        p = (sign * build_td(d).polynomial).to_float64()
        got = signed_max(p, simplex(d), resolution=max(6, 12 - d), seed=0)
        want = _full(monkeypatch, lambda: signed_max(p, simplex(d), max(6, 12 - d), seed=0))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("case", ["t3_simplex", "t4_simplex", "t5_simplex", "t3_ball",
                                      "prod3_ball", "prod3_sphere", "prod4_sphere",
                                      "prod5_sphere"])
    def test_every_full_search_point_has_a_representative(self, monkeypatch, case):
        name, dom = case.split("_")
        d = int(name[-1])
        p = build_td(d).polynomial if name.startswith("t") else Poly.monomial((1,) * d)
        dom = {"simplex": simplex, "ball": ball, "sphere": sphere}[dom](d)
        reps = np.array([pt for pt, _ in critical_points(p, dom, seed=0)])
        assert len(_nonincreasing_rows(reps)) == len(reps)
        # T_5's gradient tolerance 1e-11 max|coef| is 1.4e-7: its points
        # converge only to about 1e-8, and two searches can land that far apart
        tol = 1e-7 if case == "t5_simplex" else 1e-8
        full = _full(monkeypatch, lambda: critical_points(p, dom, seed=0))
        assert len(full) > len(reps)
        for pt, _ in full:
            dist = np.max(np.abs(reps - np.sort(pt)[::-1]), axis=1)
            assert np.min(dist) <= tol, pt


class TestLevelSet:
    def test_r3_level_one(self):
        r3 = build_t3(3).to_float64()
        f = Poly.monomial((1, 1, 1)).to_float64()
        p = f - (1.0 / 72.0) * r3
        pts = level_set(f, p, 1 / 72, simplex(3), tol=1e-9, resolution=24, seed=0)
        want = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5),
                (1/3, 1/3, 1/3)]
        assert len(pts) == len(want)
        for w in want:
            assert min(max(abs(a - b) for a, b in zip(w, q)) for q in pts) < 1e-8

    def test_r5_face_level_recovers_diagonal_and_edge_orbits(self, consts):
        r5 = build_r5(consts)
        f = Poly.monomial((2, 2, 2)).to_float64()
        lead = consts.leading
        p = f - (1.0 / lead) * r5
        pts = level_set(f, p, 1.0 / lead, simplex_face(3), tol=1e-9,
                        resolution=48, seed=0)
        diag = sorted({round(q[0], 10) for q in pts if abs(q[0] - q[1]) < 1e-7})
        assert any(abs(v - 0.4588164122) < 1e-6 for v in diag)
        assert any(abs(v - 0.1343303216) < 1e-6 for v in diag)
        edge_expected = (2 - math.sqrt(2)) / 4
        edge = [q for pt in pts for q in pt
                if abs(min(pt)) < 1e-9 and abs(q - edge_expected) < 1e-4]
        assert edge and all(abs(q - edge_expected) < 1e-8 for q in edge)

    def test_reported_points_satisfy_tighter_tolerance(self, consts):
        r3 = build_t3(3).to_float64()
        f = Poly.monomial((1, 1, 1)).to_float64()
        p = f - (1.0 / 72.0) * r3
        tol = 1e-8
        pts = level_set(f, p, 1 / 72, simplex(3), tol=tol, resolution=16, seed=0)
        g = (f - p)
        for q in pts:
            assert abs(abs(g.eval(q)) - 1 / 72) <= tol / 10


def _r5_level_inputs(consts):
    f = Poly.monomial((2, 2, 2)).to_float64()
    return f, f - (1.0 / consts.leading) * build_r5(consts), 1.0 / consts.leading


class TestBatchedLevelSet:
    def test_one_derivatives_build_per_chart(self, consts, monkeypatch):
        # the criterion-05 inputs: the 2-simplex chart of sum x_i = 1 has
        # seven faces (interior, three edges, three vertices), each searched
        # through one chart of one plan, with one derivative map
        built = []
        init = polycore.DerivativeMap.__init__

        def counting_init(self, E):
            built.append(E.shape[1])
            init(self, E)

        monkeypatch.setattr(polycore.DerivativeMap, "__init__", counting_init)
        f, p, r = _r5_level_inputs(consts)
        level_set(f, p, r, simplex_face(3), tol=1e-9, resolution=48, seed=0)
        assert sorted(built) == [0, 0, 0, 1, 1, 1, 2]

    @pytest.mark.parametrize("case", ["r5_face", "t3_simplex"])
    def test_matches_the_exact_extremal_points(self, consts, case):
        # each exact point has exactly one level-set point near it, and no
        # level-set point is left over
        if case == "r5_face":
            (f, p, r), dom, res, tol = _r5_level_inputs(consts), simplex_face(3), 48, 1e-10
            t_plus, t_minus = r5_diagonal_parameters(consts)
            e = (2 - math.sqrt(2)) / 4
            seeds = [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (e, 1 - e, 0.0), (1 / 3, 1 / 3, 1 / 3),
                     (t_plus, t_plus, 1 - 2 * t_plus), (t_minus, t_minus, 1 - 2 * t_minus)]
        else:
            f, r, dom, res, tol = Poly.monomial((1, 1, 1)).to_float64(), 1 / 72, simplex(3), 24, 1e-12
            p = f - (1.0 / 72.0) * build_t3(3).to_float64()
            seeds = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (1 / 3, 1 / 3, 1 / 3)]
        want = sorted({perm for s in seeds for perm in itertools.permutations(s)})
        got = level_set(f, p, r, dom, tol=1e-9, resolution=res, seed=0)
        assert len(want) == (19 if case == "r5_face" else 8)
        dist = np.max(np.abs(np.array(want)[:, None, :] - np.array(got)[None, :, :]), axis=2)
        assert len(got) == len(want)
        assert sorted(np.argmin(dist, axis=1)) == list(range(len(got)))
        assert np.max(np.min(dist, axis=1)) <= tol

    def test_a_level_below_the_maximum_raises(self):
        f = Poly.monomial((1, 1, 1)).to_float64()
        p = f - (1.0 / 72.0) * build_t3(3).to_float64()
        with pytest.raises(polycore.PolyError, match="reaches"):
            level_set(f, p, 1 / 144, simplex(3), tol=1e-9, resolution=24, seed=0)

    def test_feasible_is_a_row_mask(self):
        q = Poly(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -0.6, (0, 1): -0.8}, "float64")
        starts = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.05]])
        shapes = []

        def keep_all(Y):
            shapes.append(Y.shape)
            return np.ones(len(Y), dtype=bool)

        found = supnorm._newton_critical_points(_derivatives(q), starts, keep_all, 1e-12)
        assert shapes == [(3, 2)]
        assert np.allclose(found, [(0.3, 0.4)])
        assert supnorm._newton_critical_points(
            _derivatives(q), starts, lambda Y: np.zeros(len(Y), dtype=bool), 1e-12) == []


class TestFusedKernel:
    """Newton reads each iteration's gradients and Hessians from one
    Derivatives evaluation; critical values come from one eval_grid per face."""

    def test_one_derivatives_evaluation_per_lockstep_iteration(self, monkeypatch):
        calls, iterations = [], []
        call, lockstep = polycore.Derivatives.__call__, supnorm._lockstep

        def counted_call(self, points):
            calls.append(len(points))
            return call(self, points)

        def counted_lockstep(Z, evaluate, advance, tol, max_iter):
            def recorded(Z):
                iterations.append(len(Z))
                return evaluate(Z)
            return lockstep(Z, recorded, advance, tol, max_iter)

        monkeypatch.setattr(polycore.Derivatives, "__call__", counted_call)
        monkeypatch.setattr(supnorm, "_lockstep", counted_lockstep)
        rng = np.random.default_rng(3)
        q = build_td(4).polynomial.to_float64()
        supnorm._newton_critical_points(_derivatives(q), supnorm._simplex_starts(rng, 4, 40),
                                        lambda Y: np.ones(len(Y), dtype=bool), 1e-11)
        assert len(iterations) > 2 and calls == iterations
        # the sphere search's first step reuses the evaluation that gives
        # the starting multipliers
        calls.clear()
        iterations.clear()
        p = Poly.monomial((1, 1, 1)).to_float64()
        supnorm._sphere_critical_points(_derivatives(p), rng.normal(size=(30, 3)), 1e-11)
        assert len(iterations) > 2 and calls == iterations and calls[0] == 30

    def test_sphere_start_with_no_multiplier_is_evaluated_again(self):
        # a start whose multiplier is not finite does not run, so the first
        # step evaluates the running rows afresh
        p = Poly.monomial((1, 2, 1)).to_float64()
        real = _derivatives(p)

        class Marked:
            nvars, calls = real.nvars, []

            def __call__(self, X):
                G, H = real(X)
                if not self.calls:
                    G = G.copy()
                    G[1] = np.nan
                self.calls.append(len(X))
                return G, H

        starts = np.random.default_rng(8).normal(size=(20, 3))
        marked = Marked()
        got = supnorm._sphere_critical_points(marked, starts, 1e-11)
        assert marked.calls[:2] == [20, 19]
        want = supnorm._sphere_critical_points(real, np.delete(starts, 1, axis=0), 1e-11)
        assert got == want and len(got) > 1

    @pytest.mark.parametrize("dom", [simplex(3), ball(3), sphere(3)], ids=lambda d: d.kind)
    def test_critical_values_are_eval_grid_of_the_chart(self, dom):
        # x1 x2^2 x3 (1 - x1 - x2 - x3): not symmetric, stationary inside the simplex
        xs = [Poly.variable(3, i, "float64") for i in range(3)]
        p = xs[0] * xs[1] * xs[1] * xs[2] * (1.0 - xs[0] - xs[1] - xs[2])
        assert not supnorm._symmetric(p)
        cps = critical_points(p, dom, seed=0, interior_only=dom.kind == "simplex")
        pts = np.array([pt for pt, _ in cps])
        assert len(cps) > 1 and [v for _, v in cps] == p.eval_grid(pts).tolist()

    def test_face_values_are_the_charts(self):
        # on the faces of the simplex the value is the chart's at the chart
        # point: equal to p at the embedded point up to rounding
        p = Poly(3, {(2, 1, 0): 1.0, (0, 1, 2): -0.7, (1, 0, 0): 0.3, (0, 0, 3): 0.5,
                     (1, 1, 1): 2.0}, "float64")
        cps = critical_points(p, simplex(3), seed=0)
        pts = np.array([pt for pt, _ in cps])
        assert [v for _, v in cps] == pytest.approx(p.eval_grid(pts).tolist(), abs=1e-14)
        vertices = [v for pt, v in cps if sorted(pt) in ([0, 0, 0], [0, 0, 1])]
        assert sorted(vertices) == [0.0, 0.0, 0.3, 0.5]


def _explicit(target, basis, coeffs):
    """target - sum_k c_k phi_k built as a Poly, term by term."""
    return target.to_float64() - bestapprox._combination(
        coeffs, [phi.to_float64() for phi in basis])


def _chart_terms(chart, coefs):
    """A planned chart's nonzero terms as a Poly's terms map, in its order."""
    return {tuple(e): c for e, c in zip(chart.table.exps.T.tolist(), coefs.tolist()) if c}


class TestSearchPlan:
    """A bound plan is the residual f - sum_k c_k phi_k that Poly arithmetic
    builds, term for term and in the same graded order, so that searching it
    is searching that Poly, bit for bit."""

    @pytest.mark.parametrize("case", ["simplex_sym", "simplex_full", "ball", "sphere",
                                      "simplex_face"])
    def test_matches_the_explicit_residual(self, case):
        rng = np.random.default_rng(41)
        target, dom, degree, kind = {
            "simplex_sym": ((1, 1, 1), simplex(3), 2, "symmetric"),
            "simplex_full": ((1, 2, 1), simplex(3), 3, "full"),
            "ball": ((2, 1, 1), ball(3), 2, "full"),
            "sphere": ((1, 1, 1), sphere(3), 2, "full"),
            "simplex_face": ((2, 2), simplex_face(3), 3, "full"),
        }[case]
        target = Poly.monomial(target)
        basis = bestapprox.invariant_basis(degree, target.nvars, kind,
                                           for_sphere=dom.kind == "sphere")
        plan = supnorm.SearchPlan(target, basis)
        for c in (0.05 * rng.normal(size=len(basis)), 0.01 * rng.normal(size=len(basis))):
            bound, explicit = plan.bind(c), _explicit(target, basis, c)
            assert list(bound.terms.items()) == list(explicit.terms.items())
            assert supnorm._symmetric(bound) == supnorm._symmetric(explicit) \
                == (case == "simplex_sym")
            got = sup_norm(bound, dom, 8, seed=0)
            want = sup_norm(explicit, dom, 8, seed=0)
            assert got.value.hex() == want.value.hex() and got.argmax == want.argmax
            assert got.grid_value.hex() == want.grid_value.hex()
            assert got.critical_points == want.critical_points
            assert len(got.critical_points) > 0
            assert bound.eval(got.argmax) == explicit.eval(got.argmax)

    def test_a_poly_is_a_plan_of_itself(self):
        p = build_td(4).polynomial
        bound = supnorm.SearchPlan(p).bind()
        assert bound.terms == p.to_float64().terms and supnorm._symmetric(bound)
        got, want = sup_norm(bound, simplex(4), 8), sup_norm(p, simplex(4), 8)
        assert got.value.hex() == want.value.hex() and got.argmax == want.argmax
        assert got.critical_points == want.critical_points

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_charts_replay_restrict_to_face(self, nvars):
        # small integer coefficients cancel exactly on the faces, so terms
        # drop out of the charts; the others are restrict_to_face's, exactly
        rng = np.random.default_rng(50 + nvars)
        exps = polycore.monomial_exponents(4, nvars)
        basis = [Poly(nvars, {e: int(v) for e, v in zip(exps, rng.integers(-2, 3, len(exps)))
                              if rng.random() < 0.4}) for _ in range(4)]
        target = Poly.monomial((1,) * nvars)
        plan = supnorm.SearchPlan(target, basis)
        for c in ([1, -1, 0.5, 2], [0.5, 0.25, -1, 0], [0, 0, 0, 0], rng.normal(size=4)):
            bound, explicit = plan.bind(c), _explicit(target, basis, c)
            assert list(bound.terms.items()) == list(explicit.terms.items())
            for zeros, sum_active in supnorm.simplex_faces(nvars):
                chart = plan.chart(zeros, sum_active)
                want = supnorm.restrict_to_face(explicit, zeros, sum_active)
                got = _chart_terms(chart, chart.restrict(bound.a))
                assert list(got.items()) == list(want.terms.items())

    def test_cancelled_terms_come_back_last(self):
        # (x1 + x2) - x1 + x1: x1 cancels at the second step and returns at
        # the third, in its graded place after x2, as in the Poly sum
        x1, x2 = Poly.monomial((1, 0)), Poly.monomial((0, 1))
        target, basis = Poly.constant(2, Fraction(1, 2)), [x1 + x2, -x1, x1]
        bound = supnorm.SearchPlan(target, basis).bind([1.0, 1.0, 1.0])
        assert list(bound.terms) == [(0, 0), (0, 1), (1, 0)]
        assert list(bound.terms.items()) == list(_explicit(target, basis, [1, 1, 1]).terms.items())

    @pytest.mark.parametrize("c,symmetric", [((0.25, 0.0), True), ((0.25, 1e-300), False),
                                             ((0.0, 0.5), False)])
    def test_chamber_exactly_when_the_residual_is_symmetric(self, c, symmetric):
        # x1 x2 x3 and x1^2 + x2^2 + x3^2 are symmetric, x1 is not
        target = Poly.monomial((1, 1, 1))
        basis = [Poly.monomial((2, 0, 0)) + Poly.monomial((0, 2, 0)) + Poly.monomial((0, 0, 2)),
                 Poly.monomial((1, 0, 0))]
        bound = supnorm.SearchPlan(target, basis).bind(c)
        assert supnorm._symmetric(bound) == supnorm._symmetric(_explicit(target, basis, c)) \
            == symmetric
        grid = supnorm._grid_values(bound, simplex(3), 6)[0]
        chamber = supnorm._chamber_grid(simplex(3), 6)
        assert grid.tobytes() == (chamber if symmetric else sample_domain(simplex(3), 6)).tobytes()
        pts = np.array([pt for pt, _ in critical_points(bound, simplex(3), seed=0)])
        assert (len(_nonincreasing_rows(pts)) == len(pts)) == symmetric

    def test_a_cancellation_can_make_the_residual_symmetric(self):
        # x1 + 2 x2 - 1.0 x2 = x1 + x2, with equal coefficients and no arithmetic left
        target = Poly.monomial((1, 0)) + 2 * Poly.monomial((0, 1))
        bound = supnorm.SearchPlan(target, [Poly.monomial((0, 1))]).bind([1.0])
        assert supnorm._symmetric(bound)

    def test_bound_plans_compare_by_plan_and_coefficients(self):
        plan = supnorm.SearchPlan(Poly.monomial((1, 1)), [Poly.monomial((1, 0))])
        assert plan.bind([0.5]) == plan.bind(np.array([0.5]))
        assert plan.bind([0.5]) != plan.bind([0.25])
        assert plan.bind([0.5]) != supnorm.SearchPlan(Poly.monomial((1, 1)),
                                                      [Poly.monomial((1, 0))]).bind([0.5])
        with pytest.raises(polycore.PolyError):
            plan.bind([1.0, 2.0])
        with pytest.raises(polycore.PolyError):
            supnorm.SearchPlan(Poly.monomial((1, 1)), [Poly.monomial((1,))])


class TestSumFaceRows:
    """The closed-form restriction of monomials to the face sum x = 1."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_closed_form_is_the_compose_route(self, k):
        # every exponent of degree <= 7, those of the top degree alone and
        # none at all, against restrict_to_face of each monomial
        for degree in range(8):
            exps = polycore.exponent_array(degree, k)
            for rows in (exps, exps[exps.sum(axis=1) == degree], exps[:0]):
                want_E, want_B = polycore.term_matrix(
                    [supnorm.restrict_to_face(Poly.monomial(e), (), True) for e in rows.tolist()]
                    or [Poly.zero(k - 1)])
                E, B = supnorm._sum_face_rows(rows)
                assert E.shape == want_E.shape and E.tobytes() == want_E.tobytes()
                assert B.tobytes() == want_B.tobytes()

    def test_factorials_past_int64(self):
        rows = polycore.exponent_array(23, 3)
        rows = rows[rows[:, -1] >= 21]   # 21! > 2^63
        want_E, want_B = polycore.term_matrix(
            [supnorm.restrict_to_face(Poly.monomial(e), (), True) for e in rows.tolist()])
        E, B = supnorm._sum_face_rows(rows)
        assert E.tobytes() == want_E.tobytes() and B.tobytes() == want_B.tobytes()


class TestBatchedSolve:
    def test_one_variable(self):
        H = np.array([[[2.0]], [[0.0]], [[np.nan]], [[np.inf]], [[-4.0]]])
        g = np.array([[1.0], [1.0], [1.0], [1.0], [2.0]])
        kept = H.copy()
        s = supnorm._batched_solve(H, g)
        assert s[[0, 4], 0].tolist() == [-0.5, 0.5]
        assert np.isnan(s[1:4]).all()
        assert np.array_equal(H, kept, equal_nan=True)

    def test_bordered_sphere_system(self):
        # [[A - 2 lam I, -2x], [2x^T, 0]] as _sphere_critical_points builds it;
        # x = 0 makes it singular
        rng = np.random.default_rng(4)
        n, d = 7, 3
        A = rng.normal(size=(n, d, d))
        X = rng.normal(size=(n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X[1] = 0.0
        J = np.zeros((n, d + 1, d + 1))
        J[:, :d, :d] = A + A.transpose(0, 2, 1) - 2 * rng.normal(size=n)[:, None, None] * np.eye(d)
        J[:, :d, d] = -2 * X
        J[:, d, :d] = 2 * X
        J[2, 0, 0] = np.nan
        J[3, 1, 2] = np.inf
        F = rng.normal(size=(n, d + 1))
        F[4, 0] = np.nan
        s = supnorm._batched_solve(J, F)
        assert np.isnan(s[1:5]).all()
        for i in (0, 5, 6):
            assert J[i] @ s[i] == pytest.approx(-F[i], abs=1e-12)


def _near_threshold(rng, k, ratio):
    """A k x k matrix with |det| about ratio * 1e-14 max|H|^k, the singular
    threshold of _batched_solve: its least singular value set to match."""
    U, S, Vt = np.linalg.svd(rng.normal(size=(k, k)))
    for _ in range(4):
        H = (U * S) @ Vt
        S[-1] = ratio * 1e-14 * np.abs(H).max() ** k / np.prod(S[:-1])
    return (U * S) @ Vt


class TestBatchedSolveBits:
    """_batched_solve calls the LAPACK gufuncs directly; its steps and its
    NaN rows are those of the np.linalg.det / np.linalg.solve version
    (_reference_batched_solve), bit for bit, and it warns of nothing."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_the_linalg_wrappers(self, k):
        rng = np.random.default_rng(70 + k)
        H = rng.normal(size=(64, k, k))
        H[1] = 0.0
        H[2] = rng.integers(-3, 4, size=(k, k))
        H[2, -1] = H[2, 0] if k > 1 else 0.0             # exactly singular
        H[3, :, 0] = 0.0
        ratios = [0.2, 0.5, 0.99, 1.01, 2.0, 5.0, 0.9999999, 1.0000001]
        if k > 1:   # for k = 1, |det| = max|H| is far above the threshold
            for i, r in enumerate(ratios, start=4):
                H[i] = _near_threshold(rng, k, r)
                assert 0.1 <= abs(np.linalg.det(H[i])) / (1e-14 * np.abs(H[i]).max() ** k) <= 10
        H[20, 0, -1] = np.nan
        H[21, -1, 0] = np.inf
        H[22, 0, 0] = -np.inf
        H[23] = np.nan
        H[24:28] *= np.array([1e-150, 1e-30, 1e30, 1e60])[:, None, None]
        g = rng.normal(size=(64, k))
        g[30, 0], g[31, -1], g[32] = np.nan, np.inf, 0.0
        kept = H.copy()
        got, want = supnorm._batched_solve(H, g), _reference_batched_solve(H, g)
        assert got.shape == want.shape == (64, k) and got.tobytes() == want.tobytes()
        assert np.array_equal(H, kept, equal_nan=True)
        bad = np.isnan(got).all(axis=1)
        assert bad[[1, 2, 3, 20, 21, 22, 23]].all() and not bad[[0, 32, 40]].any()
        if k > 1:   # the near-threshold rows fall on both sides
            assert 0 < bad[4:4 + len(ratios)].sum() < len(ratios)


def _reference_refine_grid(p, dom, resolution, crits):
    """_refine_grid as one argmax over the grid rows stacked on the critical points."""
    grid, values = supnorm._grid_values(p, dom, resolution)
    pts = np.array([pt for pt, _ in crits], dtype=float).reshape(len(crits), grid.shape[1])
    pts, mags = np.vstack([grid, pts]), np.abs(np.concatenate([values, [v for _, v in crits]]))
    i = int(np.argmax(mags))
    return supnorm.SupNormReport(value=float(mags[i]), argmax=tuple(float(v) for v in pts[i]),
                                 critical_points=crits,
                                 grid_value=float(np.max(mags[:len(grid)])))


class TestRefineGrid:
    """The first maximum over the grid values, then over the critical
    values: a tie keeps the grid's point, and of equal critical values the
    first; the grid is never stacked with the critical points."""

    @pytest.fixture
    def plan(self):
        p = Poly(3, {(2, 1, 0): 1.0, (0, 1, 2): -0.7, (1, 0, 0): 0.3, (1, 1, 1): 2.0}, "float64")
        b = supnorm.SearchPlan(p).bind()
        grid, values = supnorm._grid_values(b, simplex(3), 8)
        i = int(np.argmax(np.abs(values)))
        return b, tuple(grid[i].tolist()), float(abs(values[i]))

    @pytest.mark.parametrize("case", ["none", "below", "tie", "two_equal", "nan", "nan_later"])
    def test_matches_the_stacked_argmax(self, plan, case, monkeypatch):
        b, grid_pt, top = plan
        a, c, e = (0.1, 0.2, 0.3), (0.2, 0.2, 0.2), (0.3, 0.1, 0.1)
        crits = {
            "none": [],
            "below": [(a, 0.5 * top), (c, -0.9 * top)],
            "tie": [(a, 0.5 * top), (c, -top), (e, top)],
            "two_equal": [(a, 0.5 * top), (c, -2 * top), (e, 2 * top)],
            "nan": [(a, 2 * top), (c, math.nan)],
            "nan_later": [(a, math.nan), (c, math.nan), (e, 3 * top)],
        }[case]
        want = _reference_refine_grid(b, simplex(3), 8, crits)

        def no_stack(*args, **kwargs):
            raise AssertionError("the grid was stacked")

        monkeypatch.setattr(np, "vstack", no_stack)
        got = supnorm._refine_grid(b, simplex(3), 8, crits)
        monkeypatch.undo()
        assert got.value.hex() == want.value.hex() or math.isnan(got.value) and math.isnan(
            want.value)
        assert got.argmax == want.argmax and got.grid_value.hex() == want.grid_value.hex()
        assert got.grid_value == top and got.critical_points is crits
        assert got.argmax == {"none": grid_pt, "below": grid_pt, "tie": grid_pt,
                              "two_equal": c, "nan": c, "nan_later": a}[case]


class TestDeterminant:
    def test_d5_exact_factorization(self):
        assert dd_determinant(5) == d5_factorized_form()

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_vanishes_on_equal_coordinates(self, d):
        det = dd_determinant(d)
        pt = [Fraction(1, 7)] * 2 + [Fraction(i + 2, 11) for i in range(d - 2)]
        assert det.eval(pt) == 0

    def test_vanishes_at_critical_points(self):
        det = dd_determinant(5).to_float64()
        td = build_td(5).polynomial.to_float64()
        cps = critical_points(td, simplex(5), seed=0, interior_only=True)
        assert cps
        scale = max(abs(c) for c in det.terms.values())
        for pt, _ in cps:
            assert abs(det.eval(pt)) <= 1e-6 * scale

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_vandermonde_divisibility_report(self, d):
        rep = vandermonde_factor_report(d)
        assert rep["vandermonde_divides"]
        quotient = rep["quotient"]
        v = quotient
        for i in range(d - 1):
            for j in range(i + 1, d - 1):
                v = v * (Poly.variable(d, j) - Poly.variable(d, i))
        assert v == rep["determinant"]


# --------------------------------------------------------------------------
# the Newton kernel against its earlier form: a gather and scatter of the
# running rows over the whole array each step, the Hessian filled by two
# fancy assignments, rows converted to tuples before one dedup loop per kept
# point; the search must give the same bits
# --------------------------------------------------------------------------


def _reference_batched_solve(H, g):
    k = H.shape[1]
    with np.errstate(invalid="ignore"):
        dets = np.linalg.det(H)
    bad = ~(np.abs(dets) > 1e-14 * np.maximum(np.abs(H).max(axis=(1, 2)), 1e-30) ** k)
    if bad.any():
        H = H.copy()
        H[bad] = np.eye(k)
    step = np.linalg.solve(H, -g[..., None])[..., 0]
    step[bad] = np.nan
    return step


def _reference_lockstep(Z, evaluate, advance, tol, max_iter):
    converged = np.zeros(len(Z), dtype=bool)
    for _ in range(max_iter):
        run = np.where(~converged & np.isfinite(Z).all(axis=1))[0]
        if run.size == 0:
            break
        F, J = evaluate(Z[run])
        done = np.max(np.abs(F), axis=1) <= tol
        converged[run[done]] = True
        run, F, J = run[~done], F[~done], J[~done]
        if run.size:
            Z[run], negligible = advance(Z[run], _reference_batched_solve(J, F))
            converged[run[negligible]] = True
    return converged


def _reference_dedup_points(points, tol=supnorm.DEDUP_TOL):
    if len(points) == 0:
        return []
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    unseen = np.ones(len(pts), dtype=bool)
    kept = []
    while unseen.any():
        i = int(np.argmax(unseen))
        kept.append(i)
        unseen[i] = False
        unseen &= np.max(np.abs(pts - pts[i]), axis=1) > tol
    return kept


def _reference_derivatives_call(self, points):
    k = self.nvars
    out = np.empty((len(points), self.C.shape[1]))
    for lo, table in self.batch.tables(points):
        out[lo:lo + len(table)] = table @ self.C
    i, j = np.triu_indices(k)
    H = np.empty((len(points), k, k))
    H[:, i, j] = H[:, j, i] = out[:, k:]
    return out[:, :k], H


def _reference_newton_critical_points(ders, starts, feasible, grad_tol):
    k = ders.nvars
    if k == 0:
        return [()]
    X = np.array(starts, dtype=float).reshape(-1, k)

    def advance(X, s):
        limit = 1.0 + np.linalg.norm(X, axis=1)
        norms = np.linalg.norm(s, axis=1)
        shrink = norms > limit
        s[shrink] *= (limit[shrink] / norms[shrink])[:, None]
        X = X + s
        return X, norms <= 1e-15 * (1.0 + np.linalg.norm(X, axis=1))

    ok = _reference_lockstep(X, ders, advance, grad_tol, 60)
    found = [tuple(float(v) for v in x) for x in X[ok & feasible(X)]]
    return [found[i] for i in _reference_dedup_points(found)]


def _reference_sphere_critical_points(ders, starts, grad_tol):
    d = ders.nvars
    X = np.array(starts, dtype=float).reshape(-1, d)
    nrm = np.linalg.norm(X, axis=1)
    X = X[nrm > 0] / nrm[nrm > 0, None]
    Z = np.column_stack([X, 0.5 * np.einsum("ij,ij->i", ders(X)[0], X)])

    def evaluate(Z):
        X, lam = Z[:, :d], Z[:, d]
        G, H = ders(X)
        J = np.zeros((len(Z), d + 1, d + 1))
        J[:, :d, :d] = H - 2 * lam[:, None, None] * np.eye(d)
        J[:, :d, d] = -2 * X
        J[:, d, :d] = 2 * X
        return np.concatenate([G - 2 * lam[:, None] * X,
                               (np.einsum("ij,ij->i", X, X) - 1.0)[:, None]], axis=1), J

    def advance(Z, s):
        Z = Z + s
        n = np.linalg.norm(Z[:, :d], axis=1)
        pos = n > 0
        Z[pos, :d] /= n[pos, None]
        return Z, np.linalg.norm(s, axis=1) <= 1e-15

    ok = _reference_lockstep(Z, evaluate, advance, grad_tol, 80)
    found = [tuple(float(v) for v in z[:d]) for z in Z[ok]]
    return [found[i] for i in _reference_dedup_points(found)]


def _with_reference_kernel(monkeypatch, search):
    """search() run on the reference Newton kernel and dedup."""
    with monkeypatch.context() as m:
        m.setattr(supnorm, "_newton_critical_points", _reference_newton_critical_points)
        m.setattr(supnorm, "_sphere_critical_points", _reference_sphere_critical_points)
        m.setattr(supnorm, "dedup_points", _reference_dedup_points)
        m.setattr(polycore.Derivatives, "__call__", _reference_derivatives_call)
        return search()


def _hex(obj):
    """obj with every float written as float.hex(), for exact comparison."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return type(obj)(_hex(v) for v in obj)
    return obj


def _random_quartic(rng, d, symmetric=False):
    """A quartic in d variables with every term; with symmetric, the terms of
    one S_d orbit share a coefficient."""
    coefs, terms = {}, {}
    for e in polycore.monomial_exponents(4, d):
        key = tuple(sorted(e, reverse=True)) if symmetric else e
        terms[e] = coefs.setdefault(key, float(rng.normal()))
    return Poly(d, terms, "float64")


class TestKernelAgainstReference:
    CASES = [(d, dom, symmetric) for d in (2, 3, 4)
             for dom, symmetric in ((simplex, False), (simplex, True), (ball, False),
                                    (sphere, False))]

    @pytest.mark.parametrize("d, dom, symmetric", CASES,
                             ids=[f"{dom.__name__}{d}{'_chamber' if s else ''}"
                                  for d, dom, s in CASES])
    def test_search_bits(self, monkeypatch, d, dom, symmetric):
        rng = np.random.default_rng(40 + d)
        p = _random_quartic(rng, d, symmetric)
        assert supnorm._symmetric(p) == symmetric
        domain = dom(d)
        for seed in (0, 1):
            want = _with_reference_kernel(monkeypatch, lambda: (
                critical_points(p, domain, seed=seed), sup_norm(p, domain, 6, seed=seed)))
            cps, rep = critical_points(p, domain, seed=seed), sup_norm(p, domain, 6, seed=seed)
            assert len(cps) > 1
            assert _hex(cps) == _hex(want[0])
            assert _hex([rep.value, rep.argmax, rep.critical_points, rep.grid_value]) == _hex(
                [want[1].value, want[1].argmax, want[1].critical_points, want[1].grid_value])

    def test_level_set_bits(self, monkeypatch, consts):
        # the level set of criterion 05: (x1 x2 x3)^2 - R_5 / leading on the face
        f, p, r = _r5_level_inputs(consts)
        want = _with_reference_kernel(monkeypatch, lambda: level_set(
            f, p, r, simplex_face(3), tol=1e-9, resolution=48, seed=0))
        got = level_set(f, p, r, simplex_face(3), tol=1e-9, resolution=48, seed=0)
        assert len(got) == 19 and _hex(got) == _hex(want)

    @pytest.mark.parametrize("d", [4, 5])
    def test_verify_td_bound_bits(self, monkeypatch, d):
        want = _with_reference_kernel(monkeypatch, lambda: verify_td_bound(d, resolution=8))
        got = verify_td_bound(d, resolution=8)
        assert _hex(list(got.items())) == _hex(list(want.items()))


class TestBlockDedup:
    def test_near_duplicates_across_blocks(self):
        rng = np.random.default_rng(8)
        for n, dim in ((3 * supnorm.DEDUP_BLOCK + 17, 3), (2 * supnorm.DEDUP_BLOCK, 5)):
            base = rng.uniform(size=(n // 4, dim))
            pts = base[rng.integers(0, len(base), n)] + rng.uniform(-2e-8, 2e-8, (n, dim))
            kept = dedup_points(pts)
            assert kept == _reference_dedup_points(pts)
            assert len(base) // 2 < len(kept) < n
            assert dedup_points([tuple(p) for p in pts.tolist()]) == kept

    def test_chain_across_the_block_boundary(self):
        # each point 0.75 tol after the one before: the greedy subset keeps
        # every other one, the chain running from one block into the next
        block, tol = supnorm.DEDUP_BLOCK, supnorm.DEDUP_TOL
        pts = np.random.default_rng(9).uniform(size=(2 * block + 5, 2))
        chain = range(block - 7, block + 8)
        pts[list(chain)] = [(0.5, 0.5 + 0.75 * tol * k) for k in range(len(chain))]
        kept = dedup_points(pts)
        assert kept == _reference_dedup_points(pts)
        assert [i for i in kept if i in chain] == list(chain)[::2]

    def test_nan_rows_and_repeats(self):
        # a distance to a NaN row is NaN, never > tol: a NaN row is near
        # every point, so it goes unless it comes first, and then it hides
        # every later row
        rng = np.random.default_rng(10)
        pts = rng.uniform(size=(300, 2))
        pts[250:] = pts[:50]
        assert dedup_points(pts) == _reference_dedup_points(pts) == list(range(250))
        pts[200, 1] = np.nan
        assert dedup_points(pts) == _reference_dedup_points(pts) == [
            *range(200), *range(201, 250)]
        pts[0, 0] = np.nan
        assert dedup_points(pts) == _reference_dedup_points(pts) == [0]


class TestTableLayout:
    def test_newton_table_is_the_chunked_table(self):
        rng = np.random.default_rng(11)
        ders = _derivatives(_random_quartic(rng, 3))
        Z = rng.uniform(-1, 1, size=(40, 4))
        for X in (Z[:, :3], np.ascontiguousarray(Z[:, :3])):
            table = ders.batch.table(X)
            [(lo, whole)] = list(ders.batch.tables(X))
            assert table.flags.c_contiguous and lo == 0
            assert table.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [*range(1, 10), 17, 65])
    def test_derivatives_match_the_chunked_product(self, monkeypatch, n):
        # up to EVAL_CHUNK points are one table and one product; more go
        # chunk by chunk through dot, as the reference does
        monkeypatch.setattr(polycore, "EVAL_CHUNK", 8)
        rng = np.random.default_rng(12 + n)
        for d in (1, 2, 4):
            ders = _derivatives(_random_quartic(rng, d))
            X = rng.uniform(-1, 1, size=(n, d))
            G, H = ders(X)
            G0, H0 = _reference_derivatives_call(ders, X)
            assert G.tobytes() == G0.tobytes() and H.tobytes() == H0.tobytes()


class TestSearchPinnedBits:
    """Hex literals and digests recorded on an AVX512_SPR host: numpy picks
    its power kernel by CPU features, so they hold per host class (README)."""

    # recorded before the running rows were carried between steps, the
    # Hessian gathered by one index and dedup blocked
    def test_verify_td_bound_5(self):
        rep = verify_td_bound(5)
        rows = np.array([pt + (v,) for pt, v in rep["interior_critical_points"]])
        assert rep["max_abs_estimate"].hex() == "0x1.0000000000000p+0"
        assert rows.shape == (51, 6)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "8b29e4e46fd639bbbf68b743d19ec60326381eb42a441d27b7ef990ecdfbfcca")

    def test_approx_report(self, capsys):
        assert cli.main(["approx", "--monomial", "2,2,2", "--degree", "5", "--grid", "10"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "3182977db869246f5f7501731fa640a04daf0b69269096e1f03c5268199a3226")
