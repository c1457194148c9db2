"""The benchmark's per-layer tracer wraps chebydev functions by name.

A renamed or deleted target makes ``perfbench/run.py --trace 1`` crash in
``Tracer.install``; these tests catch that from the library side.  They only
read ``perfbench/`` and change nothing there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import chebydev.cli  # noqa: F401  (the tracer wraps cli functions too)
from chebydev import bestapprox, lp, supnorm
from chebydev.domains import ball, simplex
from chebydev.polycore import Poly

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, attr):
    obj = importlib.import_module(f"chebydev.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _layertrace().TARGETS])
def test_target_resolves(modname, attr):
    assert callable(_resolve(modname, attr))


@pytest.mark.parametrize("fn", [supnorm._newton_critical_points,
                                supnorm._sphere_critical_points])
def test_newton_starts_is_second_argument(fn):
    # the tracer counts Newton starts as len(args[1])
    assert list(inspect.signature(fn).parameters)[1] == "starts"


def test_minimax_points_is_second_argument():
    # the tracer counts minimax points as len(args[1])
    assert list(inspect.signature(bestapprox._minimax_on).parameters)[1] == "points"


def test_lp_rows_and_columns_read_the_constraint_matrix():
    # the tracer counts lp rows and columns as args[0].shape
    assert list(inspect.signature(lp.simplex_solve).parameters)[0] == "A"


def test_argument_counts_on_a_traced_solve():
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    prob = bestapprox.ApproxProblem(Poly.monomial((1, 1, 1)), 2, simplex(3), "symmetric", 8)
    npoints = len(bestapprox.approx_grid(prob.domain, prob.grid))
    try:
        tracer.install()
        res = bestapprox.discrete_minimax(prob)
    finally:
        tracer.uninstall()
    assert tracer.counts["bestapprox.minimax.points"] == npoints
    assert tracer.counts["lp.simplex_solve.rows"] == len(res.basis_polys) + 1
    assert tracer.counts["lp.simplex_solve.columns"] == 2 * npoints


def test_lp_counters_on_a_traced_solve():
    # one attempt per solve, one _pivot call per basis change
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    prob = bestapprox.ApproxProblem(Poly.monomial((2, 2, 2)), 5, simplex(3), "full", 8)
    npoints = len(bestapprox.approx_grid(prob.domain, prob.grid))
    try:
        tracer.install()
        res = bestapprox.discrete_minimax(prob)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["lp.simplex_solve.calls"] == 1
    assert metrics["lp.pivots"] == res.iterations > 0
    assert metrics["lp.retries"] == 0
    assert metrics["lp.rows"] == len(res.basis_polys) + 1
    assert metrics["lp.columns"] == 2 * npoints


def test_critical_points_count_the_returned_points():
    # the tracer counts critical_points.points_out as len(result)
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        rep = supnorm.sup_norm(Poly.monomial((1, 1, 1)), simplex(3), 6)
    finally:
        tracer.uninstall()
    assert tracer.counts["supnorm.critical_points.calls"] == 1
    assert tracer.counts["supnorm.critical_points.points_out"] == len(rep.critical_points) > 0


def test_install_and_uninstall_restore_every_target():
    layertrace = _layertrace()
    before = {t[:2]: _resolve(*t[:2]) for t in layertrace.TARGETS}
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert all(_resolve(*key) is not fn for key, fn in before.items())
    finally:
        tracer.uninstall()
    assert all(_resolve(*key) is fn for key, fn in before.items())


@pytest.mark.parametrize("domain", [simplex(3), ball(3)], ids=lambda d: d.kind)
def test_planned_searches_stay_visible(monkeypatch, domain):
    # an exchange searches its residuals through one plan; the tracer still
    # counts each search and the Newton starts of each, as recorded on an
    # untraced run of the same exchange
    prob = bestapprox.ApproxProblem(Poly.monomial((1, 1, 1)), 2, domain, "symmetric", 8)
    searches, starts = [], []

    def recording(fn, log, count):
        def recorded(*args, **kwargs):
            log.append(count(args))
            return fn(*args, **kwargs)
        return recorded

    with monkeypatch.context() as m:
        m.setattr(bestapprox, "sup_norm", recording(bestapprox.sup_norm, searches, lambda a: 1))
        for name in ("_newton_critical_points", "_sphere_critical_points"):
            m.setattr(supnorm, name, recording(getattr(supnorm, name), starts, lambda a: len(a[1])))
        res = bestapprox.remez_exchange(prob, seed=0)
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        traced = bestapprox.remez_exchange(prob, seed=0)
    finally:
        tracer.uninstall()
    assert traced.gap_log == res.gap_log and res.exchange_iterations > 1
    assert tracer.counts["supnorm.sup_norm.calls"] == len(searches) >= res.exchange_iterations
    assert tracer.counts["supnorm.critical_points.calls"] == len(searches)
    assert tracer.counts["supnorm.newton.starts"] == sum(starts) > 0
