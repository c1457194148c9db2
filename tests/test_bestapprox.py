import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, prod
from pathlib import Path

import numpy as np
import pytest

from chebydev import bestapprox, lp, polycore, supnorm
from chebydev.bestapprox import (ApproxProblem, ball_mixed_monomial_check,
                                 discrete_minimax, invariant_basis,
                                 remez_exchange, verify_correspondence)
from chebydev.constructions import build_td, compute_rd, derive_r5_constants
from chebydev.domains import BALL, ball, simplex, simplex_face, sphere
from chebydev.lp import LPError
from chebydev.polycore import Poly, PolyBatch, PolyError, term_matrix
from chebydev.signatures import (Certificate, build_l_functional,
                                 certify_lower_bound)
from chebydev.supnorm import sample_domain, sup_norm
from chebydev.symfun import monomial_symmetric, partitions_upto
from test_polycore import batch_error_excess


def assert_upper_is_residual_sup(res, prob):
    """deviation_upper is the searched sup of the returned residual."""
    rep = sup_norm(res.residual_poly(prob.target), prob.domain,
                   max(8, prob.grid // 2), seed=0)
    assert res.deviation_upper == pytest.approx(rep.value, rel=1e-12)


def _scaled_f(pb):
    """The float scaled functions of a problem's family."""
    return [s.to_float64() for s in bestapprox._family(*pb.key[1:])[1]]


def _clear_caches():
    """Empty the caches that problems share, so the next solve starts cold."""
    for cached in (bestapprox._family, bestapprox._problem_batch, bestapprox.approx_grid):
        cached.cache_clear()


@pytest.fixture(scope="module")
def consts():
    return derive_r5_constants()


class TestBases:
    def test_symmetric_count(self):
        assert len(invariant_basis(4, simplex(3), "symmetric")) == 11

    def test_full_count(self):
        assert len(invariant_basis(2, simplex(3), "full")) == comb(5, 2)

    def test_even_degree5_equals_degree4(self):
        five = invariant_basis(5, simplex(3), "even")
        four = invariant_basis(4, simplex(3), "even")
        assert len(five) == len(four) == 10

    def test_sphere_reduction_drops_dependent_functions(self):
        full = invariant_basis(2, sphere(3), "full")
        # no monomial with last exponent >= 2 survives
        assert all(max(exp for exp, _ in b.sorted_terms())[-1] <= 1 for b in full)
        assert len(full) == 9
        sym = invariant_basis(2, sphere(3), "symmetric")
        # 1, e_1, e_2 survive; the power sum m_2 is constant on the sphere
        assert len(sym) == 3

    # the partitions whose monomial symmetric functions the sphere's rank
    # check drops in dimension d, up to degree 8, as it dropped them when it
    # also ranked on the resolution-3 sphere grid; a degree-n basis drops
    # those of degree <= n, and the even-symmetric one the even ones
    SPHERE_DROPPED = {
        3: [(2,), (2, 1), (2, 2), (2, 1, 1), (3, 2), (3, 1, 1), (2, 2, 1), (4, 2), (3, 3),
            (3, 2, 1), (2, 2, 2), (5, 2), (4, 3), (4, 2, 1), (3, 3, 1), (3, 2, 2), (6, 2),
            (5, 3), (5, 2, 1), (4, 4), (4, 3, 1), (4, 2, 2), (3, 3, 2)],
        4: [(2,), (2, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1), (2, 1, 1, 1), (4, 2),
            (3, 2, 1), (3, 1, 1, 1), (2, 2, 2), (2, 2, 1, 1), (5, 2), (4, 2, 1), (3, 3, 1),
            (3, 2, 2), (3, 2, 1, 1), (2, 2, 2, 1), (6, 2), (5, 2, 1), (4, 3, 1), (4, 2, 2),
            (4, 2, 1, 1), (3, 3, 2), (3, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2)],
        5: [(2,), (2, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1), (2, 1, 1, 1), (4, 2),
            (3, 2, 1), (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (5, 2), (4, 2, 1), (3, 2, 2),
            (3, 2, 1, 1), (3, 1, 1, 1, 1), (2, 2, 2, 1), (2, 2, 1, 1, 1), (6, 2), (5, 2, 1),
            (4, 2, 2), (4, 2, 1, 1), (3, 3, 2), (3, 3, 1, 1), (3, 2, 2, 1), (3, 2, 1, 1, 1),
            (2, 2, 2, 2), (2, 2, 2, 1, 1)]}

    @pytest.mark.parametrize("kind", ["symmetric", "even-symmetric"])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_sphere_reduction_keeps_its_functions(self, kind, d):
        for n in range(1, 9):
            parts = [p for p in partitions_upto(n, d)
                     if kind == "symmetric" or all(v % 2 == 0 for v in p)]
            want = [monomial_symmetric(p, d) for p in parts if p not in self.SPHERE_DROPPED[d]]
            assert list(invariant_basis(n, sphere(d), kind)) == want


class TestDiscreteMinimax:
    def test_univariate_square(self):
        prob = ApproxProblem(Poly.monomial((2,)), 1, ball(1), "full", grid=50)
        res = discrete_minimax(prob)
        assert res.deviation == pytest.approx(0.5, abs=1e-10)
        # best approximant is the constant 1/2
        assert res.coefficients[0] == pytest.approx(0.5, abs=1e-9)
        assert abs(res.coefficients[1]) < 1e-9
        assert res.equioscillation_ok

    def test_simplex_grid32_bracket(self):
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3),
                             "symmetric", grid=32)
        res = discrete_minimax(prob)
        assert 1 / 72 - 5e-4 <= res.deviation <= 1 / 72 + 1e-10

    def test_sphere_zero_approximant(self):
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, sphere(3),
                             "symmetric", grid=40)
        res = remez_exchange(prob, seed=0)
        assert res.deviation == pytest.approx(3 ** -1.5, abs=1e-9)
        assert np.max(np.abs(res.coefficients)) < 1e-6

    def test_equioscillation_support_size(self):
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3),
                             "symmetric", grid=24)
        res = discrete_minimax(prob)
        assert res.equioscillation_count >= len(res.basis_polys) + 1

    @pytest.mark.parametrize("grid", [0, -5])
    def test_grid_below_one_is_rejected(self, grid):
        # a sphere grid of resolution < 1 would still build a spiral
        with pytest.raises(PolyError, match="grid must be >= 1"):
            ApproxProblem(Poly.monomial((1, 1, 1)), 2, sphere(3), "full", grid)

    def test_rank_deficient_grid_reports_offender(self):
        # four grid points cannot carry ten independent quadratics
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3),
                             "full", grid=1)
        with pytest.raises(PolyError, match="rank-deficient"):
            discrete_minimax(prob)

    @pytest.mark.parametrize("domain,basis,grid", [(simplex(3), "full", 16),
                                                   (ball(3), "even", 12)])
    def test_lp_columns_match_eval_grid(self, domain, basis, grid):
        # the LP input stays byte for byte what per-function eval_grid gives,
        # times the QR conditioning matrix on the ball
        pb = bestapprox._problem_basis(ApproxProblem(
            Poly.monomial((2, 2, 2)), 5, domain, basis, grid))
        want = np.column_stack([b.eval_grid(pb.grid) for b in _scaled_f(pb)])
        if domain.kind == BALL:
            want = want @ pb.mix
        else:
            assert pb.mix is None
        _, got = pb.columns(pb.grid)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_full_and_symmetric_agree_for_symmetric_target(self):
        full = discrete_minimax(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "full", grid=16))
        sym = discrete_minimax(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=16))
        assert abs(full.deviation - sym.deviation) < 1e-8

    def test_symmetric_basis_lp_invariants(self):
        # on the symmetric basis the LP is sound: nested grids never lower
        # the discrete value, and no grid value exceeds the continuum value
        # (27^2 b)^-1 of the degree-6 family
        continuum = 1.0 / (27 ** 2 * derive_r5_constants().b)
        value = {}
        for grid in (8, 12, 16, 24):
            res = discrete_minimax(ApproxProblem(
                Poly.monomial((2, 2, 2)), 5, simplex(3), "symmetric", grid=grid))
            assert res.warning == ""
            assert res.deviation <= continuum
            value[grid] = res.deviation
        assert value[16] >= value[8]
        assert value[24] >= value[12]

    def test_full_basis_value_closes_or_raises(self):
        # a dual objective that differs from the recovered level is a solver
        # failure, never a value with a warning attached
        prob = ApproxProblem(Poly.monomial((2, 2, 2)), 5, simplex(3), "full", grid=8)
        try:
            res = discrete_minimax(prob)
        except LPError:
            return
        pts = bestapprox.approx_grid(prob.domain, prob.grid)
        closure = np.max(np.abs(res.residual_poly(prob.target).eval_grid(pts)))
        assert closure == pytest.approx(res.deviation, rel=1e-8)

    @pytest.mark.parametrize("basis", ["full", "symmetric"])
    def test_target_in_the_span_has_zero_deviation(self, basis):
        # t is zero up to rounding, and so is max|f - Phi c|: no gate fires
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 3, simplex(3), basis, grid=8)
        res = discrete_minimax(prob)
        assert abs(res.deviation) < 1e-15
        assert res.residual_extrema == [] and res.equioscillation_count == 0
        assert abs(remez_exchange(prob, seed=0).deviation_upper) < 1e-15

    @pytest.mark.parametrize("doctored,match", [("level", "exceeds the level"),
                                                ("objective", "dual objective")])
    def test_doctored_lp_result_raises(self, monkeypatch, doctored, match):
        # a level below max|f - Phi c| on the points, or a dual objective
        # that differs from it, is a solver failure, never a reported value
        original = bestapprox.simplex_solve

        def doctor(A, b, c, basis=None):
            res = original(A, b, c, basis)
            if doctored == "level":
                res.multipliers[-1] *= 1 - 1e-6
            else:
                res.objective *= 1 + 1e-3
            return res

        monkeypatch.setattr(bestapprox, "simplex_solve", doctor)
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=8)
        with pytest.raises(LPError, match=match):
            discrete_minimax(prob)


class TestRemezExchange:
    @pytest.mark.parametrize("target,degree,domain,basis", [
        ((1, 1), 5, simplex(2), "full"), ((1, 1), 2, simplex(2), "symmetric"),
        ((2, 1), 3, ball(2), "full"), ((1, 1, 1), 3, sphere(3), "full"),
        ((2, 2, 2), 6, simplex(3), "symmetric"), ((2, 0), 2, ball(2), "even")])
    def test_target_in_the_span(self, target, degree, domain, basis):
        # the LP level of a target the basis reproduces is rounding, and
        # reads 0, never above the searched sup of the residual; a residual
        # of level 0 has no extrema
        res = remez_exchange(ApproxProblem(Poly.monomial(target), degree, domain, basis, 8))
        assert res.deviation_lower == res.deviation == 0.0
        assert res.deviation_lower <= res.deviation_upper < 1e-15
        assert res.residual_extrema == [] and res.equioscillation_count == 0

    def test_simplex_product_converges(self):
        prob = ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=16)
        res = remez_exchange(prob, seed=0)
        assert res.deviation_lower == pytest.approx(1 / 72, rel=1e-12)
        assert res.deviation_upper - res.deviation_lower < 1e-8
        assert_upper_is_residual_sup(res, prob)

    def test_basis_is_built_once(self, monkeypatch):
        # the family is built once, however many grids and exchanges use it
        calls = []
        original = bestapprox._scaled_basis

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(bestapprox, "_scaled_basis", counted)
        _clear_caches()
        for grid in (8, 16):
            res = remez_exchange(ApproxProblem(
                Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=grid), seed=0)
            assert res.exchange_iterations > 1
        assert len(calls) == 1

    def test_rank_check_runs_once(self, monkeypatch):
        # every point set of the exchange contains the grid, so the grid's
        # rank check decides them all
        calls = []
        original = bestapprox._independent_columns

        def counted(Phi):
            calls.append(Phi.shape)
            return original(Phi)

        monkeypatch.setattr(bestapprox, "_independent_columns", counted)
        res = remez_exchange(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=8), seed=0)
        assert res.exchange_iterations > 1
        assert len(calls) == 1

    def test_fit_gradients_are_built_once(self, monkeypatch):
        # once per target and family, however many grids and exchanges use them
        _clear_caches()
        probs = [ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=grid)
                 for grid in (8, 16)]
        pb = bestapprox._problem_basis(probs[0])
        fixed = [pb.target_f, *_scaled_f(pb)]
        built = []
        original = Poly.gradient

        def recorded(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(Poly, "gradient", recorded)
        for prob in probs:
            res = remez_exchange(prob, seed=0)
            assert res.exchange_iterations > 1
        assert sum(any(q == p for p in fixed) for q in built) == len(fixed)

    def test_closing_solve_reuses_last_search(self, monkeypatch):
        searched = []
        original = bestapprox.sup_norm

        def recorded(resid, *args, **kwargs):
            searched.append(resid)
            return original(resid, *args, **kwargs)

        monkeypatch.setattr(bestapprox, "sup_norm", recorded)
        res = remez_exchange(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "full", grid=8), seed=0)
        assert res.exchange_iterations > 1
        assert all(a != b for a, b in zip(searched, searched[1:]))
        assert res.deviation_upper == min(entry[1] for entry in res.gap_log)

    def test_each_residual_is_searched_once(self, monkeypatch):
        searched = []
        original = bestapprox.sup_norm

        def recorded(resid, *args, **kwargs):
            searched.append(resid)
            return original(resid, *args, **kwargs)

        monkeypatch.setattr(bestapprox, "sup_norm", recorded)
        res = remez_exchange(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=8), seed=0)
        assert res.exchange_iterations > 1
        assert all(a != b for i, a in enumerate(searched) for b in searched[:i])

    @pytest.mark.parametrize("prob", [
        ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=16),
        ApproxProblem(Poly.monomial((2, 2)), 3, simplex(2), "full", grid=12),
        ApproxProblem(Poly.monomial((1, 1, 1)), 2, sphere(3), "symmetric", grid=40),
        # the problem of ball_mixed_monomial_check(1, 2, grid=10): most of its
        # fits reach the sup at a critical point of the iterate
        ApproxProblem(Poly.monomial((1, 1, 0)), 1, ball(3), "full", grid=10),
    ], ids=["simplex3_sym_g16", "simplex2_x1sq_x2sq_deg3_full_g12", "sphere3_sym_g40",
            "ball3_mixed_1_2_g10"])
    def test_skipping_decided_fits_changes_no_output(self, monkeypatch, prob):
        # a fit whose sup reaches the current one, on the search grid or at a
        # critical point of the iterate, is rejected by its search anyway, so
        # leaving that search out moves no bit
        searched = []
        original = bestapprox.sup_norm

        def recorded(resid, *args, **kwargs):
            searched.append(resid)
            return original(resid, *args, **kwargs)

        monkeypatch.setattr(bestapprox, "sup_norm", recorded)
        got = remez_exchange(prob, seed=0)
        n_skipping = len(searched)
        searched.clear()
        monkeypatch.setattr(bestapprox, "_fit_decided", lambda *args: False)
        want = remez_exchange(prob, seed=0)
        assert len(searched) > n_skipping
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert [got.deviation_lower.hex(), got.deviation_upper.hex()] == \
            [want.deviation_lower.hex(), want.deviation_upper.hex()]
        assert got.gap_log == want.gap_log
        assert got.residual_extrema == want.residual_extrema

    def test_upper_is_the_best_iterate(self):
        # the returned approximant is the searched one with the smallest sup,
        # not the last one
        prob = ApproxProblem(Poly.monomial((1, 2, 0)), 2, ball(3), "full", grid=10)
        res = remez_exchange(prob, seed=0)
        assert res.deviation_upper == min(entry[1] for entry in res.gap_log)
        assert_upper_is_residual_sup(res, prob)

    def test_no_lp_point_set_repeats_a_point(self, monkeypatch):
        # each fresh extremal point is adjoined once, also when the search
        # returns it twice (a critical point that is also the argmax)
        sets = []
        original = bestapprox._minimax_on

        def recorded(pb, points, *start):
            sets.append(points)
            return original(pb, points, *start)

        monkeypatch.setattr(bestapprox, "_minimax_on", recorded)
        remez_exchange(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=16), seed=0)
        assert len(sets) > 2
        assert all(len(np.unique(points, axis=0)) == len(points) for points in sets)

    @pytest.mark.parametrize("case", ["symmetric", "lopsided"])
    def test_grid_max_is_the_search_grid_value(self, case):
        p = Poly.monomial((1, 1, 1)) - Fraction(1, 4) * Poly.monomial((2, 0, 0))
        if case == "symmetric":
            p = p - Fraction(1, 4) * (Poly.monomial((0, 2, 0)) + Poly.monomial((0, 0, 2)))
        p = p.to_float64()
        assert supnorm._symmetric(p) == (case == "symmetric")
        for dom in (simplex(3), ball(3), sphere(3)):
            assert supnorm.grid_max(p, dom, 8) == sup_norm(p, dom, 8).grid_value

    def test_unconverged_exchange_keeps_warning(self):
        res = remez_exchange(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=8),
            max_iter=1, seed=0)
        assert res.gap_log[-1][2] > 1e-6
        assert "did not close the gap in 1 iterations" in res.warning

    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_failed_exchange_lp_ends_the_exchange(self, monkeypatch, fail_at):
        # a failed first solve leaves nothing to report and raises; a failed
        # re-solve ends the exchange with a warning, and the bounds of the
        # iterates searched so far are still reported
        original = bestapprox._minimax_on
        calls = []

        def failing(pb, points, start=None):
            calls.append(1)
            if len(calls) == fail_at:
                raise LPError("doctored failure")
            return original(pb, points, start)

        monkeypatch.setattr(bestapprox, "_minimax_on", failing)
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=8)
        if fail_at == 1:
            with pytest.raises(LPError, match="doctored"):
                remez_exchange(prob, seed=0)
            return
        res = remez_exchange(prob, seed=0)
        assert res.exchange_iterations == fail_at - 1
        assert "exchange LP failed" in res.warning and "doctored" in res.warning
        assert res.deviation_lower <= res.deviation_upper
        assert_upper_is_residual_sup(res, prob)

    def test_clustered_sphere_exchange_closes(self):
        # the exchange points cluster 1e-5 apart and the LP bases reach
        # condition 1e9; a re-solve once raised 'dual objective differs'
        res = remez_exchange(ApproxProblem(
            Poly.monomial((3, 0, 1)), 3, sphere(3), "full", grid=8), seed=0)
        assert res.deviation_lower <= res.deviation_upper < res.deviation_lower + 1e-8
        assert res.deviation_lower == pytest.approx(0.125, abs=1e-8)

    def test_degree5_product_squared(self, consts):
        res = remez_exchange(ApproxProblem(
            Poly.monomial((2, 2, 2)), 5, simplex(3), "symmetric", grid=16), seed=0)
        expected = 1.0 / consts.leading
        assert res.deviation_lower == pytest.approx(expected, rel=1e-8)

    def test_degree4_is_strictly_harder(self, consts):
        # dropping the degree-5 approximants roughly triples the deviation:
        # the best degree-5 tail of the extremal family is genuinely degree 5
        res = remez_exchange(ApproxProblem(
            Poly.monomial((2, 2, 2)), 4, simplex(3), "symmetric", grid=16), seed=0)
        assert res.deviation_lower > 2.0 / consts.leading

    def test_univariate_quartic(self):
        res = remez_exchange(ApproxProblem(
            Poly.monomial((4,)), 3, ball(1), "full", grid=50), seed=0)
        assert res.deviation_lower == pytest.approx(0.125, abs=1e-10)

    def test_gap_log_lower_bounds_monotone(self):
        res = remez_exchange(ApproxProblem(
            Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=8), seed=0)
        lowers = [entry[0] for entry in res.gap_log]
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
        assert all(entry[1] >= entry[0] - 1e-12 for entry in res.gap_log)


def _box_expansion(basis):
    """The reference change to box coordinates: (2x - 1)^e = sum_j
    binom[e][e - j] x^j, each term of each function expanded into integer
    products; the term maps keep their zero sums."""
    binom = [[comb(e, j) * 2 ** j * (-1) ** (e - j) for j in range(e, -1, -1)]
             for e in range(max(b.degree() for b in basis) + 1)]
    scaled = [{} for _ in basis]
    for total, b in zip(scaled, basis):
        for exp, coef in b.sorted_terms():
            for key, cs in zip(product(*(range(e, -1, -1) for e in exp)),
                               product(*(binom[e] for e in exp))):
                total[key] = total.get(key, 0) + coef * prod(cs)
    return scaled


class TestScaledBasis:
    """The exact change to box coordinates u = 2x - 1 on simplex domains."""

    @pytest.mark.parametrize("kind", bestapprox.BASIS_KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("face", [False, True])
    def test_scaled_functions_and_matrix(self, kind, d, face):
        domain = simplex_face(d) if face else simplex(d)
        for degree in range(7):
            basis = invariant_basis(degree, simplex(d), kind)
            if kind.startswith("even") and degree >= 2:
                # (2x - 1)^2 has a term in x
                with pytest.raises(bestapprox.SpanError, match="left the basis span"):
                    bestapprox._scaled_basis(basis, domain)
                continue
            # the same terms in the same order as the integer expansion,
            # less its zero sums
            scaled, M = bestapprox._scaled_basis(basis, domain)
            assert [list(s.terms.items()) for s in scaled] == [
                [(e, c) for e, c in s.items() if c] for s in _box_expansion(basis)]
            keys = [b.sorted_terms()[-1][0] for b in basis]
            dense = [[float(Fraction(s.terms.get(key, 0))) for s in scaled] for key in keys]
            assert np.array_equal(M, np.array(dense))
            for j, s in enumerate(scaled):
                recon = Poly.zero(d)
                for i in np.flatnonzero(M[:, j]):
                    recon = recon + Fraction(M[i, j]) * basis[i]
                assert recon == s

    def test_span_error_is_a_poly_error(self):
        assert issubclass(bestapprox.SpanError, PolyError)


def _gram_schmidt_columns(Phi):
    """The reference rank check: greedy modified Gram-Schmidt with a second
    pass, a column kept when more than INDEPENDENCE_TOL of its norm stays."""
    keep, ortho = [], []
    for j in range(Phi.shape[1]):
        v = Phi[:, j].astype(float).copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0:
            continue
        for _ in range(2):
            for u in ortho:
                v -= (u @ v) * u
        if np.linalg.norm(v) > bestapprox.INDEPENDENCE_TOL * norm0:
            ortho.append(v / np.linalg.norm(v))
            keep.append(j)
    return keep


def _outer_product_crash(Phi, f):
    """The reference crash basis: elimination on the columns of Phi by
    outer-product updates."""
    N, k = Phi.shape
    U = Phi.copy()
    free = np.ones(N, dtype=bool)
    rows = []
    for j in range(k):
        p = int(np.argmax(np.where(free, np.abs(U[:, j]), -1.0)))
        rows.append(p)
        free[p] = False
        U[:, j + 1:] -= np.outer(U[:, j] / U[p, j], U[p, j + 1:])
    S = Phi[rows]
    resid = f - Phi @ np.linalg.solve(S, f[rows])
    w = int(np.argmax(np.where(free, np.abs(resid), -1.0)))
    lam = np.append(-np.linalg.solve(S.T, Phi[w]), 1.0)
    negative = lam * (1.0 if resid[w] >= 0 else -1.0) < 0
    return [i + N * neg for i, neg in zip(rows + [w], negative)]


# the discrete minimax problems of the benchmark's lp workload
LP_GRIDS = [((2, 2, 2), 5, simplex(3), "symmetric", g) for g in (8, 12, 16, 24)] + [
    ((2, 2, 2), 5, simplex(3), "full", 8), ((2, 2, 2), 5, simplex(3), "full", 16),
    ((1, 1, 1), 2, simplex(3), "full", 48), ((1, 1, 1, 1), 3, simplex(4), "full", 8),
    ((1, 1, 1, 1), 3, simplex(4), "full", 12), ((2, 2, 2), 5, ball(3), "even", 12),
    ((1, 1, 1), 2, sphere(3), "full", 24), ((1, 1, 1, 1), 3, simplex(4), "symmetric", 16)]


def _lp_grid_id(spec):
    target, degree, domain, basis, grid = spec
    return f"{''.join(map(str, target))}_deg{degree}_{domain.label()}_{basis}_g{grid}"


class TestRankCheck:
    """The QR rank check keeps the columns the Gram-Schmidt reference keeps."""

    # the reference costs a vector operation per pair of columns, so the
    # full monomial bases stop at this many functions
    MAX_COLUMNS = 120

    @pytest.mark.parametrize("kind", ["full", "symmetric", "even-symmetric"])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_sphere_reductions(self, monkeypatch, kind, d):
        # |x|^2 = 1 makes functions of each basis dependent on the sphere:
        # invariant_basis reduces the symmetric kinds by the rank check, and
        # the full monomial basis, which it reduces by exponents, is checked
        # here on its sphere grid
        rank_check, dropped = bestapprox._independent_columns, []

        def compared(Phi):
            keep, R = rank_check(Phi)
            assert keep == _gram_schmidt_columns(Phi)
            assert R.shape == (len(keep), len(keep))
            dropped.append(Phi.shape[1] - len(keep))
            return keep, R

        monkeypatch.setattr(bestapprox, "_independent_columns", compared)
        for n in range(9):
            if kind != "full":
                invariant_basis(n, sphere(d), kind)
            elif comb(n + d, d) <= self.MAX_COLUMNS:
                compared(PolyBatch(invariant_basis(n, ball(d), kind))(sample_domain(sphere(d), 3)))
        assert len(dropped) > 2 and max(dropped) > 2

    def test_zero_column(self):
        Phi = np.random.default_rng(1).normal(size=(20, 5))
        Phi[:, 2] = 0.0
        Phi[:, 4] = Phi[:, 0] - 2 * Phi[:, 3]
        assert bestapprox._independent_columns(Phi)[0] == _gram_schmidt_columns(Phi) == [0, 1, 3]

    def test_fewer_points_than_functions(self):
        Phi = np.random.default_rng(2).normal(size=(4, 7))
        Phi[:, 1] = 3 * Phi[:, 0]
        keep, R = bestapprox._independent_columns(Phi)
        assert keep == _gram_schmidt_columns(Phi) == [0, 2, 3, 4]
        assert R.shape == (4, 4)

    @pytest.mark.parametrize("spec", LP_GRIDS, ids=_lp_grid_id)
    def test_lp_grids(self, spec):
        target, degree, domain, basis, grid = spec
        pb = bestapprox._problem_basis(
            ApproxProblem(Poly.monomial(target), degree, domain, basis, grid))
        Phi = np.ascontiguousarray(pb.batch(pb.grid)[:, 1:])   # after the target's column
        assert bestapprox._independent_columns(Phi)[0] == _gram_schmidt_columns(Phi) \
            == list(range(len(pb.basis)))
        assert bestapprox._crash_basis(pb.grid_columns, pb.grid_target) == \
            _outer_product_crash(pb.grid_columns, pb.grid_target)

    def test_rank_error_names_the_dependent_function(self):
        assert issubclass(bestapprox.RankError, PolyError)
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3), "full", grid=1)
        with pytest.raises(bestapprox.RankError, match=r"x2\^2, rational\) is dependent"):
            discrete_minimax(prob)


def _tangency_rows_loop(pb, grads, points, domain):
    """The reference fit system's tangency rows: a row per (point, tangent)
    pair, the slopes of the gradient batch summed by Python's sum."""
    G = grads(points).reshape(len(points), len(pb.basis) + 1, -1)
    rows, rhs = [], []
    for e, pt in enumerate(points):
        for u in bestapprox._face_tangent_vectors(np.asarray(pt, dtype=float), domain):
            slopes = [sum(u[i] * g[i] for i in range(len(u))) for g in G[e]]
            rows.append(slopes[1:] + [0.0])
            rhs.append(slopes[0])
    return np.array(rows).reshape(len(rows), len(pb.basis) + 1), np.array(rhs)


# the exchange problems of the benchmark's oracle workload
ORACLE_PROBLEMS = [((1, 1, 1), 2, simplex(3), "symmetric", 16),
                   ((2, 2, 2), 5, simplex(3), "symmetric", 10),
                   ((1, 1, 1), 2, sphere(3), "symmetric", 40),
                   ((1, 1, 0), 1, ball(3), "full", 10), ((2, 1, 0), 2, ball(3), "full", 6)]


class TestProblemBatch:
    """The LP and the fit read the target and the basis from one batch of
    float Polys; the simplex keeps its basis matrix."""

    @pytest.mark.parametrize("spec", LP_GRIDS, ids=_lp_grid_id)
    def test_problem_batch_is_the_float_polys(self, spec):
        # the target and the scaled functions, as term_matrix and PolyBatch
        # read their float Polys
        target, degree, domain, basis, grid = spec
        pb = bestapprox._problem_basis(
            ApproxProblem(Poly.monomial(target), degree, domain, basis, grid))
        polys = [Poly.monomial(target).to_float64()] + [
            s.to_float64() for s in bestapprox._family(*pb.key[1:])[1]]
        want_E, _ = term_matrix(polys)
        assert pb.batch.exps.T.tobytes() == want_E.tobytes()
        assert pb.batch(pb.grid).tobytes() == PolyBatch(polys)(pb.grid).tobytes()

    @pytest.mark.parametrize("spec", LP_GRIDS, ids=_lp_grid_id)
    def test_kept_basis_matrix(self, monkeypatch, spec):
        # after every pivot the simplex's kept B is the matrix gathered from
        # A; a crash basis starts the solve, so no artificial is basic
        pivot, pivots = lp._pivot, []

        def checked(basis, *args):
            pivot(basis, *args)
            assert basis.cols.max() < basis.A.shape[1]
            assert basis.B.tobytes() == np.ascontiguousarray(basis.A[:, basis.cols]).tobytes()
            pivots.append(1)

        monkeypatch.setattr(lp, "_pivot", checked)
        target, degree, domain, basis, grid = spec
        try:
            discrete_minimax(ApproxProblem(Poly.monomial(target), degree, domain, basis, grid))
        except LPError:
            pass    # the two known full-basis faults, after their pivots
        assert pivots

    def test_fit_system_is_the_python_loop(self, monkeypatch):
        fit_system, tangency = bestapprox._fit_system, []

        def compared(pb, grads, points, signs, domain):
            # value rows: the target and the scaled functions at the points,
            # within the batch's error bound, and the signs; tangency rows:
            # the Python loop's bits
            A, rhs = fit_system(pb, grads, points, signs, domain)
            n, polys = len(points), [pb.target_f] + _scaled_f(pb)
            V = np.column_stack([rhs[:n], A[:n, :-1]])
            assert A.shape[1] == len(polys) and batch_error_excess(polys, points, V) <= 1.0
            assert A[:n, -1].tolist() == signs.tolist()
            want_A, want_rhs = _tangency_rows_loop(pb, grads, points, domain)
            assert A[n:].tobytes() == want_A.tobytes() and rhs[n:].tobytes() == want_rhs.tobytes()
            tangency[-1].append(len(A) - n)
            return A, rhs

        monkeypatch.setattr(bestapprox, "_fit_system", compared)
        for target, degree, domain, basis, grid in ORACLE_PROBLEMS:
            tangency.append([])
            remez_exchange(ApproxProblem(Poly.monomial(target), degree, domain, basis, grid),
                           seed=0)
        # every exchange reaches the fit, and each fit has tangency rows
        assert [min(rows, default=0) > 0 for rows in tangency] == [True] * 5


# hex deviation and sha256 of the coefficient bytes of four discrete minimax
# problems, recorded from the Gram-Schmidt rank check, the compose-based box
# change, the column-major crash elimination and a monomial table of powers
# by products; ball3 reuses the rank check's R to condition its LP columns
PINNED_PROBLEMS = {
    "sq_deg5_full_g8": (((2, 2, 2), 5, simplex(3), "full", 8), "0x1.a11a7b9611a7bp-15",
                        "f0adedd1e7be5394488f17a973af81061ba8526a0fb46b70332e5a915ed4251f"),
    "x1x2x3x4_deg3_full_g8": (((1, 1, 1, 1), 3, simplex(4), "full", 8), "0x1.1745d1745d173p-10",
                              "0cf8f37d8dbea33e52b3f66ce2c93072449e30d72aa053a2b39a67d98fd26b89"),
    "ball3_sq_deg5_even_g12": (((2, 2, 2), 5, ball(3), "even", 12), "0x1.44b647839135fp-7",
                               "47028e0c26cee79fe7214cc18d1dad8d8dc41f144d8058b9c4934c4403322648"),
    "sphere3_x1x2x3_deg2_full_g24": (((1, 1, 1), 2, sphere(3), "full", 24), "0x1.8a2345cc04427p-3",
                                     "59e273b595db98fbf055850ac667c283ff078dbb4e925f9588a78522838d6a9a"),
}


def _pinned_minimax(spec):
    target, degree, domain, basis, grid = spec
    res = discrete_minimax(ApproxProblem(Poly.monomial(target), degree, domain, basis, grid))
    return res.deviation.hex(), hashlib.sha256(res.coefficients.tobytes()).hexdigest()


class TestPinnedBits:
    """Hex literals and digests recorded with OpenBLAS's SkylakeX kernel:
    OpenBLAS picks its kernel by CPU, so they hold per BLAS kernel (README)."""

    @pytest.mark.parametrize("name", PINNED_PROBLEMS)
    def test_discrete_minimax_keeps_its_bits(self, name):
        spec, deviation, digest = PINNED_PROBLEMS[name]
        assert _pinned_minimax(spec) == (deviation, digest)


def host_digests() -> dict:
    """sha256 digests of float results on the evaluation path: a monomial
    table, a problem batch's values on its grid, the pinned discrete minimax
    results and verify_td_bound(5)'s interior critical points."""
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    X = np.random.default_rng(31).uniform(-2, 2, size=(500, 3))
    pb = bestapprox._problem_basis(ApproxProblem(Poly.monomial((2, 2, 2)), 5, ball(3), "even", 12))
    rep = supnorm.verify_td_bound(5)
    out = {"table": digest(polycore.MonomialTable(polycore.exponent_array(11, 3)).table(X)),
           "batch": digest(pb.batch(pb.grid)),
           "verify_td_bound_5": digest([pt + (v,) for pt, v in rep["interior_critical_points"]])}
    out.update((name, _pinned_minimax(spec)) for name, (spec, _, _) in PINNED_PROBLEMS.items())
    return out


def test_bits_do_not_depend_on_simd_dispatch():
    """The digests in a process with numpy's AVX-512 dispatch targets
    disabled (those this host has) equal the ones in this process."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    features = [f for f in ("AVX512_ICL", "AVX512_SPR", "X86_V4")
                if f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches none of AVX512_ICL, AVX512_SPR, X86_V4 here")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, test_bestapprox; print(json.dumps(test_bestapprox.host_digests()))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(json.dumps(host_digests()))


class TestProblemOnce:
    """What depends only on the problem is built once per exchange, not
    once per search or per solve."""

    def test_each_face_chart_is_built_once(self, monkeypatch):
        # each chart's restriction map is built once per exchange, in closed
        # form; no search restricts a Poly to a face
        prob = ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", grid=8)
        built, restricted = [], []
        init, restrict = supnorm._Chart.__init__, supnorm.restrict_to_face

        def recorded_init(self, U, zeros, sum_active):
            built.append((zeros, sum_active))
            init(self, U, zeros, sum_active)

        def recorded_restrict(p, zeros, sum_active):
            restricted.append(len(p.terms))
            return restrict(p, zeros, sum_active)

        monkeypatch.setattr(supnorm._Chart, "__init__", recorded_init)
        monkeypatch.setattr(supnorm, "restrict_to_face", recorded_restrict)
        res = remez_exchange(prob, seed=0)
        assert res.exchange_iterations > 1
        assert len(built) == len(set(built)) > 1
        assert restricted == []

    def test_grid_lp_columns_are_evaluated_once(self, monkeypatch):
        # each solve evaluates only the rows after the grid
        prob = ApproxProblem(Poly.monomial((1, 1, 0)), 1, ball(3), "full", grid=10)
        n_grid = len(bestapprox.approx_grid(prob.domain, prob.grid))
        solves, evaluated = [], []
        columns, minimax_on = bestapprox._ProblemBasis.columns, bestapprox._minimax_on

        def recorded_columns(self, points):
            evaluated.append(len(points))
            return columns(self, points)

        def recorded_solve(pb, points, start=None):
            solves.append(len(points))
            return minimax_on(pb, points, start)

        monkeypatch.setattr(bestapprox._ProblemBasis, "columns", recorded_columns)
        monkeypatch.setattr(bestapprox, "_minimax_on", recorded_solve)
        res = remez_exchange(prob, seed=0)
        assert res.exchange_iterations > 1 and solves[0] == n_grid
        assert evaluated == [n - n_grid for n in solves if n > n_grid]

    def test_grid_columns_are_the_rank_checks(self):
        for domain in (simplex(3), ball(3), sphere(3)):
            pb = bestapprox._problem_basis(ApproxProblem(
                Poly.monomial((1, 1, 1)), 2, domain, "full", grid=8))
            f, Phi = pb.columns(pb.grid)
            assert pb.grid_columns.tobytes() == Phi.tobytes()
            assert pb.grid_target.tobytes() == f.tobytes() == pb.target_f.eval_grid(pb.grid).tobytes()


def _solve_all(cold):
    """Every LP_GRIDS problem by the LP and every ORACLE_PROBLEMS one by the
    exchange, each from cleared caches if cold: the deviation's hex, the
    coefficient bytes and the residual extrema (coordinates as hex) of each."""
    out = []
    for specs, solve in ((LP_GRIDS, discrete_minimax),
                         (ORACLE_PROBLEMS, lambda prob: remez_exchange(prob, seed=0))):
        for target, degree, domain, basis, grid in specs:
            if cold:
                _clear_caches()
            res = solve(ApproxProblem(Poly.monomial(target), degree, domain, basis, grid))
            out.append((res.deviation.hex(), res.coefficients.tobytes(),
                        [([float(v).hex() for v in pt], sign) for pt, sign in res.residual_extrema]))
    return out


class TestSharedCaches:
    """The problems of one family share its basis, scaled functions and M,
    the problems of one target and family their batches, and those of one
    domain and grid the grid: each built once, read-only, bit for bit what a
    cold build gives."""

    def test_warm_solves_match_cold_ones(self):
        cold = _solve_all(cold=True)
        assert _solve_all(cold=False) == cold

    def test_family_and_grid_are_shared(self):
        probs = [ApproxProblem(Poly.monomial(t), 2, simplex(3), "full", grid=g)
                 for t, g in (((1, 1, 1), 8), ((2, 1, 0), 8), ((1, 1, 1), 16))]
        first, other, finer = map(bestapprox._problem_basis, probs)
        assert first.basis is other.basis is finer.basis
        assert bestapprox._family(*first.key[1:])[1] is bestapprox._family(*other.key[1:])[1]
        assert first.M is other.M
        assert first.grid is other.grid is bestapprox.approx_grid(simplex(3), 8)
        assert first.batch is finer.batch and first.batch is not other.batch

    @pytest.mark.parametrize("domain", [simplex(3), ball(3), sphere(3)], ids=lambda d: d.kind)
    def test_cached_values_are_read_only(self, domain):
        pb = bestapprox._problem_basis(ApproxProblem(Poly.monomial((1, 1, 1)), 2, domain, "full", 8))
        grads = bestapprox._problem_batch(*pb.key, gradients=True)
        for a in (pb.grid, pb.M, pb.batch.exps, pb.batch.C, grads.C):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        scaled = bestapprox._family(*pb.key[1:])[1]
        assert all(isinstance(s, Poly) for s in scaled)
        with pytest.raises(AttributeError):
            scaled[0].terms = {}
        with pytest.raises(TypeError):
            scaled[0] = Poly.zero(3)
        assert pb.basis[0].terms == {(0, 0, 0): 1}


def _adjoin_pointwise(points, new):
    """The reference: each new point against every point, one at a time."""
    new = np.asarray(new, dtype=float).reshape(-1, points.shape[1])
    new = new[[np.max(np.abs(points - p), axis=1).min() > supnorm.DEDUP_TOL for p in new]]
    return np.vstack([points, new[supnorm.dedup_points(new)]])


class TestAdjoin:
    @pytest.mark.parametrize("block", [1, 7, 100, supnorm.ADJOIN_BLOCK])
    def test_matches_the_pointwise_loop(self, monkeypatch, block):
        monkeypatch.setattr(supnorm, "ADJOIN_BLOCK", block)
        rng = np.random.default_rng(block)
        tol = supnorm.DEDUP_TOL
        for d in (1, 2, 3):
            points = rng.random((60, d))
            points[:10, -1] = 0.0
            new = np.vstack([
                rng.random((30, d)),                            # far from everything
                points[rng.integers(0, 60, 10)] + rng.uniform(-tol, tol, (10, d)),
                points[:5] + np.eye(d)[-1] * tol,               # exactly tol away
                points[5:10] - np.eye(d)[-1] * tol,
                points[:3] + np.eye(d)[-1] * 2 * tol,           # just beyond
            ])
            new = np.vstack([new, new[::7]])                    # repeats among the new
            rng.shuffle(new)
            got = supnorm.adjoin(points, new)
            assert got.tobytes() == _adjoin_pointwise(points, new).tobytes()
            assert 60 + 30 < len(got) < 60 + len(new)

    def test_distance_exactly_tol_is_not_adjoined(self):
        points = np.zeros((4, 2))
        tol = supnorm.DEDUP_TOL
        new = [(0.0, tol), (-tol, 0.0), (0.0, 2 * tol), (0.0, 2 * tol)]
        assert supnorm.adjoin(points, new)[4:].tolist() == [[0.0, 2 * tol]]

    def test_block_bounds_the_distance_table(self, monkeypatch):
        sizes = []

        class Numpy:   # numpy, recording the size of every |difference| table
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def abs(x):
                sizes.append(np.size(x))
                return np.abs(x)

        monkeypatch.setattr(supnorm, "ADJOIN_BLOCK", 1000)
        monkeypatch.setattr(supnorm, "np", Numpy())   # the distance kernel's numpy
        points = np.random.default_rng(5).random((300, 3))
        new = np.random.default_rng(6).random((50, 3))
        got = supnorm.adjoin(points, new)
        # blocks of 3 new points against 300 points, one table per coordinate,
        # then dedup_points' one table of the 50 far new points among themselves
        assert sizes == [900] * 3 * 16 + [600] * 3 + [2500] * 3
        assert got.tobytes() == _adjoin_pointwise(points, new).tobytes()


class TestCorrespondence:
    def test_two_variable_pair(self):
        rep = verify_correspondence((1, 1), 2, grid=16, seed=0)
        # the squared target on the disc has total degree 4; both routes see
        # the same value, the classical 2^(1-4)
        assert rep["difference"] < 1e-6
        assert rep["simplex_deviation"] == pytest.approx(2.0 ** -3, abs=1e-6)

    def test_three_variable_adjudication(self):
        rep = verify_correspondence((1, 1, 1), 3, grid=24, seed=0)
        assert rep["difference"] < 1e-3
        assert rep["ball_value_supported"] == "1/72"
        assert rep["ball_deviation"] == pytest.approx(1 / 72, abs=1e-4)

    def test_invalid_alpha(self):
        with pytest.raises(PolyError):
            verify_correspondence((0, 0, 0), 3)


class TestBallMixedMonomials:
    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3)])
    def test_values(self, k, n):
        rep = ball_mixed_monomial_check(k, n, grid=16, seed=0)
        assert rep["abs_error"] < 1e-4
        assert rep["expected"] == 2.0 ** (1 - n)

    def test_upper_is_residual_sup(self):
        prob = ApproxProblem(Poly.monomial((1, 1, 0)), 1, ball(3), "full",
                             grid=10)
        res = remez_exchange(prob, seed=0)
        assert res.deviation_lower == pytest.approx(0.5, abs=1e-4)
        assert_upper_is_residual_sup(res, prob)

    def test_preconditions(self):
        with pytest.raises(PolyError):
            ball_mixed_monomial_check(2, 2)
        with pytest.raises(PolyError):
            ball_mixed_monomial_check(1, 5)


class TestLowerBoundConsistency:
    @pytest.mark.parametrize("d,grid", [(3, 16), (4, 10)])
    def test_certified_level_below_oracle_deviation(self, d, grid):
        fam = build_td(d)
        target = Poly.monomial((1,) * d)
        level = Fraction(1, fam.r_value)
        cert = Certificate(
            target=target, candidate=target - level * fam.polynomial,
            level=level, degree=d - 1, support=build_l_functional(d),
            domain=simplex(d))
        res = certify_lower_bound(cert, tol=0)
        assert res.certified
        oracle = remez_exchange(ApproxProblem(
            target, d - 1, simplex(d), "symmetric", grid=grid), seed=0)
        assert float(res.asserted_bound) <= oracle.deviation_lower + 1e-8
        assert oracle.deviation_lower == pytest.approx(1 / compute_rd(d), rel=1e-6)


class TestLiftedCorrespondenceConverges:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_even_symmetric_ball_route_reaches_the_simplex_value(self, consts, seed):
        # the squaring substitution maps the even-symmetric ball problem for
        # (xyz)^4 onto the simplex problem for (xyz)^2, of value (27^2 b)^-1;
        # the exchange on the ball closes on it without a warning
        res = remez_exchange(ApproxProblem(
            Poly.monomial((4, 4, 4)), 11, ball(3), "even-symmetric", grid=8), seed=seed)
        expected = 1.0 / consts.leading
        assert res.warning == ""
        assert abs(res.deviation_lower - expected) <= 1e-10 * expected
        assert res.deviation_lower <= res.deviation_upper


class TestLiftedCorrespondenceHeavy:
    def test_degree12_ball_route_approaches_simplex_value(self, consts):
        # the squaring substitution makes the even-basis ball problem for
        # (xyz)^4 isomorphic to the simplex problem for (xyz)^2, whose value
        # is verified to 1e-8 elsewhere; at desk-scale effort the ball route
        # lands within grid accuracy of that value
        from chebydev.bestapprox import remez_exchange
        expected = 1.0 / consts.leading
        res = remez_exchange(ApproxProblem(
            Poly.monomial((4, 4, 4)), 11, ball(3), "even", grid=6),
            max_iter=3, seed=0)
        assert abs(res.deviation_lower - expected) / expected < 5e-3
        assert res.deviation_lower <= res.deviation_upper + 1e-15
