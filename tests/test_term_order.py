"""Term order is not an input of any float result: the same float term map,
inserted in any order, gives bit-identical values, derivatives, searches and
exchanges, because a float polynomial holds and sums its terms in graded
lexicographic order."""

import random
from fractions import Fraction

import numpy as np
import pytest

from chebydev import bestapprox, supnorm
from chebydev.domains import ball, simplex, sphere
from chebydev.polycore import FLOAT64, Poly, PolyBatch, grlex_key, monomial_exponents


def _term_map(seed, nvars, degree):
    """About 70 % of the monomials of degree <= degree, normal coefficients."""
    rng = np.random.default_rng(seed)
    exps = monomial_exponents(degree, nvars)
    return {e: float(c) for e, c in zip(exps, rng.normal(size=len(exps)))
            if rng.random() < 0.7}


def _orders(terms):
    """The term map in graded order, reversed, and in three shuffles."""
    items = sorted(terms.items(), key=lambda kv: grlex_key(kv[0]))
    orders = [items, items[::-1]]
    for seed in range(3):
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    return [dict(order) for order in orders]


def _polys(terms, nvars):
    return [Poly(nvars, order, FLOAT64) for order in _orders(terms)]


def _all_equal(values):
    return all(v == values[0] for v in values[1:])


def test_float_terms_are_held_in_graded_order():
    terms = _term_map(1, 3, 4)
    for p in _polys(terms, 3):
        assert list(p.terms) == sorted(terms, key=grlex_key)
    # exact input inserted in any order comes out of to_float64 the same
    exact = {e: Fraction(int(1000 * c), 7) for e, c in terms.items()}
    floats = [list(Poly(3, order).to_float64().terms.items()) for order in _orders(exact)]
    assert _all_equal(floats)


def test_eval_eval_grid_and_batch_columns():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(37, 3))
    other = Poly(3, _term_map(3, 3, 3), FLOAT64)
    evals, grids, batches = [], [], []
    for p in _polys(_term_map(1, 3, 5), 3):
        evals.append([p.eval(x).hex() for x in X[:5]])
        grids.append(p.eval_grid(X).tobytes())
        batches.append(PolyBatch([other, p, p.partial(0)])(X).tobytes())
    assert _all_equal(evals) and _all_equal(grids) and _all_equal(batches)


@pytest.mark.parametrize("face", [((), False), ((), True), ((2,), True)])
def test_derivatives_of_each_chart(face):
    X = np.random.default_rng(4).uniform(0, 0.5, size=(23, 3 - len(face[0]) - face[1]))
    got = []
    for p in _polys(_term_map(5, 3, 5), 3):
        plan = supnorm.SearchPlan(p)
        chart = plan.chart(*face)
        c = chart.restrict(plan.M[0])
        G, H = chart.dmap(c)(X)
        got.append((c.tobytes(), G.tobytes(), H.tobytes()))
    assert _all_equal(got)


@pytest.mark.parametrize("dom", [simplex(3), ball(3), sphere(3)], ids=lambda d: d.kind)
def test_critical_points_and_sup_norm(dom):
    crits, reps = [], []
    for p in _polys(_term_map(6, 3, 4), 3):
        crits.append(supnorm.critical_points(p, dom, seed=0))
        rep = supnorm.sup_norm(p, dom, 6, seed=0)
        reps.append((rep.value.hex(), rep.argmax, rep.grid_value.hex(), rep.critical_points))
    assert len(crits[0]) > 0 and _all_equal(crits) and _all_equal(reps)


def test_bound_plans_of_reordered_members():
    basis = [Poly(2, _term_map(10 + k, 2, 3), FLOAT64) for k in range(4)]
    c = np.random.default_rng(7).normal(size=4)
    got = []
    for k, target in enumerate(_polys(_term_map(9, 2, 4), 2)):
        members = [Poly(2, _orders(b.terms)[k], FLOAT64) for b in basis]
        bound = supnorm.SearchPlan(target, members).bind(c)
        got.append((bound.a.tobytes(), list(bound.terms.items())))
    assert _all_equal(got)


def test_remez_exchange():
    terms = {(1, 1): 1.0, (2, 1): 0.3, (0, 3): -0.25, (1, 2): 0.7}
    results = []
    for target in _polys(terms, 2):
        res = bestapprox.remez_exchange(
            bestapprox.ApproxProblem(target, 2, simplex(2), "full", grid=8), seed=0)
        results.append((res.coefficients.tobytes(), res.deviation_lower.hex(),
                        res.deviation_upper.hex(), res.gap_log))
    assert results[0][3] and _all_equal(results)
