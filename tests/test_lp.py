import numpy as np
import pytest

from chebydev import bestapprox, lp, supnorm
from chebydev.bestapprox import ApproxProblem, discrete_minimax, remez_exchange
from chebydev.constructions import derive_r5_constants
from chebydev.domains import simplex
from chebydev.lp import LPError, simplex_solve
from chebydev.polycore import Poly


def _chebyshev_dual(seed, N, k):
    """The discrete Chebyshev dual of a seeded random Phi (N x k) and f, as
    bestapprox._minimax_on builds it, with its crash basis."""
    rng = np.random.default_rng(seed)
    Phi, f = rng.normal(size=(N, k)), rng.normal(size=N)
    A = np.vstack([np.hstack([Phi.T, -Phi.T]), np.ones(2 * N)])
    b = np.append(np.zeros(k), 1.0)
    return A, b, np.concatenate([f, -f]), bestapprox._crash_basis(Phi, f)


class TestStandardForm:
    def test_small_known_optimum(self):
        # max 3x + 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6, from the slacks
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        b = np.array([4.0, 6.0])
        c = np.array([3.0, 2.0, 0.0, 0.0])
        res = simplex_solve(A, b, c, basis=[2, 3])
        assert res.objective == pytest.approx(12.0)
        assert res.x[0] == pytest.approx(4.0)

    def test_unbounded(self):
        # max x - y with x - y free to grow: x - y - s = 0 has no upper bound
        A = np.array([[1.0, -1.0, -1.0]])
        b = np.array([0.0])
        with pytest.raises(LPError, match="unbounded"):
            simplex_solve(A, b, np.array([1.0, 0.0, 0.0]), basis=[1])

    def test_degenerate_cycling_candidate(self):
        # classic degenerate instance (Beale-type): must terminate
        A = np.array([
            [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([0.75, -20.0, 0.5, -6.0, 0.0, 0.0, 0.0])
        res = simplex_solve(A, b, c, basis=[4, 5, 6])
        assert res.objective == pytest.approx(1.25)

    def test_multipliers_solve_the_basis_adjoint(self):
        for seed in range(5):
            A, b, c, start = _chebyshev_dual(seed, 40, 4)
            res = simplex_solve(A, b, c, start)
            B = A[:, res.basis]
            assert np.allclose(B.T @ res.multipliers, c[res.basis], atol=1e-8)
            assert np.allclose(A @ res.x, b, atol=1e-8)
            assert res.objective == pytest.approx(res.multipliers[-1], rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(LPError):
            simplex_solve(np.eye(2), np.ones(3), np.ones(2), basis=[0, 1])

    def test_deterministic(self):
        A, b, c, start = _chebyshev_dual(5, 40, 4)
        r1 = simplex_solve(A, b, c, start)
        r2 = simplex_solve(A, b, c, start)
        assert r1.iterations > 0
        assert r1.basis == r2.basis
        assert r1.objective == r2.objective
        assert r1.multipliers.tobytes() == r2.multipliers.tobytes()


def _grid_columns(prob):
    """The problem basis of a discrete minimax problem, and its LP columns
    Phi and target values f on the grid, as bestapprox builds them."""
    pb = bestapprox._problem_basis(prob)
    _, Phi = pb.columns(pb.grid)
    f = pb.target_f.eval_grid(pb.grid)
    return pb, Phi, f


def _problem(target, degree, nvars, basis, grid):
    return ApproxProblem(Poly.monomial(target), degree, simplex(nvars), basis, grid)


class TestChebyshevDual:
    @pytest.mark.parametrize("target,degree,nvars,grid", [
        ((2, 2, 2), 5, 3, 8), ((1, 1, 1, 1), 3, 4, 12), ((1, 1, 1, 1), 3, 4, 16),
        ((3, 0, 3), 4, 3, 11), ((0, 3, 0, 2), 4, 4, 11)],
        ids=["sq_deg5_full_g8", "x1x2x3x4_deg3_full_g12", "x1x2x3x4_deg3_full_g16",
             "x1cu_x3cu_deg4_full_g11", "x2cu_x4sq_deg4_full_g11"])
    def test_value_agrees_with_highs(self, target, degree, nvars, grid):
        # the same LP input, solved as the primal min t, -t <= f - Phi c <= t
        optimize = pytest.importorskip("scipy.optimize")
        prob = _problem(target, degree, nvars, "full", grid)
        _, Phi, f = _grid_columns(prob)
        n, k = Phi.shape
        scale = float(np.max(np.abs(f)))
        ones = np.ones((n, 1))
        ref = optimize.linprog(
            np.append(np.zeros(k), 1.0),
            A_ub=np.vstack([np.hstack([-Phi, -ones]), np.hstack([Phi, -ones])]),
            b_ub=np.concatenate([-f, f]) / scale,
            bounds=[(None, None)] * k + [(0, None)], method="highs-ds",
            options={"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10})
        assert ref.status == 0
        res = discrete_minimax(prob)
        assert res.deviation == pytest.approx(ref.x[-1] * scale, rel=1e-9)

    @pytest.mark.parametrize("target,nvars", [((3, 0, 3), 3), ((0, 3, 0, 2), 4)],
                             ids=["x1cu_x3cu", "x2cu_x4sq"])
    def test_degenerate_stall_is_left_quickly(self, target, nvars):
        # the objective reaches its optimum early and then walks degenerate
        # bases; without the shift of the basic values the walk ran into the
        # pivot limit (8,640 pivots on x1cu_x3cu)
        res = discrete_minimax(_problem(target, 4, nvars, "full", 11))
        assert res.iterations < 500

    @pytest.mark.parametrize("grid", [8, 16, 24])
    def test_full_and_symmetric_basis_agree(self, grid):
        full = discrete_minimax(_problem((2, 2, 2), 5, 3, "full", grid))
        sym = discrete_minimax(_problem((2, 2, 2), 5, 3, "symmetric", grid))
        assert full.deviation == pytest.approx(sym.deviation, rel=1e-9)

    @pytest.mark.parametrize("coarse,fine", [(12, 24), (16, 32)])
    def test_nested_grids_never_lower_the_value(self, coarse, fine):
        lo = discrete_minimax(_problem((2, 2, 2), 5, 3, "full", coarse))
        hi = discrete_minimax(_problem((2, 2, 2), 5, 3, "full", fine))
        assert hi.deviation >= lo.deviation * (1 - 1e-12)

    @pytest.mark.parametrize("target,degree,nvars,basis", [
        ((2, 2, 2), 5, 3, "full"), ((1, 1, 1, 1), 3, 4, "full"), ((1, 1, 1), 2, 3, "symmetric")],
        ids=["sq_deg5_full", "x1x2x3x4_deg3_full", "x1x2x3_deg2_sym"])
    def test_warm_start_after_appending_points_matches_cold(self, target, degree, nvars, basis):
        pb, _, _ = _grid_columns(_problem(target, degree, nvars, basis, 8))
        extra = bestapprox.approx_grid(simplex(nvars), 12)
        grown = supnorm.adjoin(pb.grid, extra)
        assert len(grown) > len(pb.grid)
        first, lp_basis = bestapprox._minimax_on(pb, pb.grid)
        N, M = len(pb.grid), len(grown)
        start = [j + (M - N) * (j >= N) for j in lp_basis]
        warm, _ = bestapprox._minimax_on(pb, grown, start)
        cold, _ = bestapprox._minimax_on(pb, grown)
        assert warm.deviation == pytest.approx(cold.deviation, rel=1e-12)
        assert warm.deviation >= first.deviation * (1 - 1e-12)

    def test_exchange_on_the_full_degree5_basis(self):
        # once a spurious 'LP infeasible' after minutes of pivoting
        expected = 1.0 / derive_r5_constants().leading
        res = remez_exchange(_problem((2, 2, 2), 5, 3, "full", 16), seed=0)
        assert expected * (1 - 1e-4) < res.deviation_lower <= expected * (1 + 1e-12)
        assert res.deviation_lower <= res.deviation_upper


class TestStartingBasis:
    def test_given_feasible_basis_skips_phase_one(self):
        # max 3x + 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6, from the slacks:
        # the given basis is used as it is, so the one pivot is all there is
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        b = np.array([4.0, 6.0])
        c = np.array([3.0, 2.0, 0.0, 0.0])
        res = simplex_solve(A, b, c, basis=[2, 3])
        assert res.objective == pytest.approx(12.0)
        assert res.basis == [0, 3]
        assert res.iterations == 1

    def test_slightly_infeasible_start_ends_feasible(self):
        # max -y s.t. x - y = -1e-8: the basis {x} has x = -1e-8, within the
        # accepted start tolerance and already dual optimal; dual pivots
        # then make it feasible, y = 1e-8, rather than clip x to 0
        A = np.array([[1.0, -1.0]])
        b = np.array([-1e-8])
        res = simplex_solve(A, b, np.array([0.0, -1.0]), basis=[0])
        assert res.basis == [1]
        assert res.x == pytest.approx([0.0, 1e-8], abs=1e-20)
        assert res.objective == pytest.approx(-1e-8, rel=1e-12)
        assert A @ res.x == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("basis,match", [([0, 1], "infeasible"),
                                             ([2, 2], "distinct"),
                                             ([0, 4], "distinct")])
    def test_bad_starting_basis_raises(self, basis, match):
        # with b = (4, -6), columns 0 and 1 give x = 9, y = -5
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        with pytest.raises(LPError, match=match):
            simplex_solve(A, np.array([4.0, -6.0]), np.zeros(4), basis=basis)


class TestKeptBasisMatrix:
    """_Basis keeps B by replacing one column per pivot; after every pivot
    it is the matrix gathered from A, C-ordered (tobytes() hides the
    layout, which the products with B round in)."""

    def test_random_chebyshev_duals(self, monkeypatch):
        pivot, pivots = lp._pivot, []

        def checked(basis, *args):
            pivot(basis, *args)
            B = np.ascontiguousarray(basis.A[:, basis.cols])
            assert basis.B.flags.c_contiguous
            assert basis.B.tobytes() == B.tobytes()
            pivots.append(basis.pivots)

        monkeypatch.setattr(lp, "_pivot", checked)
        rng = np.random.default_rng(24)
        for seed in range(20):
            A, b, c, start = _chebyshev_dual(seed, int(rng.integers(8, 30)),
                                             int(rng.integers(2, 7)))
            simplex_solve(A, b, c, start)
        assert len(pivots) > 20
