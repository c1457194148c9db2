"""The benchmark's own checks accept the program's answers and reject
slightly perturbed ones.

    python3 -m pytest -q perfbench/test_checks.py

Each workload's operations run once (about 20 s in all); every case then
perturbs one answer by a small amount and expects the check to name it.
"""

import json
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """{workload: (Workload, {op: [output]})}, one pass each."""
    scratch = tmp_path_factory.mktemp("perfbench")
    out = {}
    for name in workloads.BUILDERS:
        wl = workloads.build(name, scratch)
        outputs = {}
        for op, fn in wl.ops:
            try:
                result = fn()
            except Exception as exc:
                result = exc
            if not wl.failed(op, result):
                outputs[op] = [result]
        out[name] = (wl, outputs)
    return out


def _errors(wl, outputs):
    return wl.check(outputs, random.Random("test"))


def _edit_json(out, edit):
    rc, text = out
    rep = json.loads(text)
    edit(rep)
    return rc, json.dumps(rep, sort_keys=True, indent=2).encode() + b"\n"


def _scaled(field, factor):
    return lambda r: replace(r, **{field: getattr(r, field) * factor})


def _shift_points(match, delta):
    def edit(pts):
        return [tuple(v + delta for v in pt) if match(pt) else pt for pt in pts]
    return edit


def _set_item(key, value):
    def edit(rep):
        rep[key] = value
    return edit


def _bump_td_coefficient(rep):
    term = rep["polynomial"]["terms"][3]
    term["coef"] = str(Fraction(term["coef"]) + Fraction(1, 10 ** 12))


def _fail_first_check(rep):
    rep["checks"][0]["passed"] = False


def _bump_b(rep):
    rep["constants"]["b"] += 1e-5


def _bump_r11(out):
    rc, text = out
    return rc, text.replace(b"6939874934784", b"6939874934785")


def _coefficient_nudge(r):
    coeffs = r.coefficients.copy()
    coeffs[-1] += 1e-7 * max(1.0, abs(coeffs[-1]))
    return replace(r, coefficients=coeffs)


# (workload, op, perturbation of the op's output, text the error must contain)
CASES = [
    ("oracle", "simplex3_x1x2x3_deg2_sym_g16", _scaled("deviation_lower", 1 + 1e-7), "not 1/72"),
    ("oracle", "simplex3_x1x2x3_deg2_sym_g16", _scaled("deviation_upper", 1 + 1e-5), "gap"),
    ("oracle", "simplex3_x1x2x3_deg2_sym_g16",
     lambda r: replace(r, deviation_upper=r.deviation_lower * (1 - 1e-12)), "exceeds upper"),
    ("oracle", "cli_approx_sq_deg5_g10",
     lambda o: _edit_json(o, lambda rep: rep.update(deviation_lower=rep["deviation_lower"] * (1 + 1e-7))),
     "(27^2 b)^-1"),
    ("oracle", "sphere3_x1x2x3_deg2_sym_g40", _scaled("deviation_lower", 1 + 1e-8), "3^(-3/2)"),
    ("oracle", "ball3_mixed_1_2_g10", lambda r: {**r, "deviation": r["deviation"] + 2e-4}, "2^(1-n)"),
    ("oracle", "ball3_mixed_2_3_g6", lambda r: {**r, "deviation": r["deviation"] - 2e-4}, "2^(1-n)"),
    ("lp", "sq_deg5_sym_g16", _scaled("deviation", 1 + 1e-8), "HiGHS"),
    ("lp", "sq_deg5_sym_g16", _coefficient_nudge, "max|f - Phi c|"),
    ("lp", "sq_deg5_full_g16", _scaled("deviation", 1 + 1e-8), "disagree"),
    ("lp", "sq_deg5_sym_g24", _scaled("deviation", 0.95), "lowered t"),
    ("lp", "sphere3_x1x2x3_deg2_full_g24", _scaled("deviation", 1 + 1e-10), "continuum value"),
    ("lp", "x1x2x3x4_deg3_full_g8", _scaled("deviation", 1 - 1e-8), "HiGHS"),
    ("td_bound", "verify_td_bound_d5",
     lambda r: {**r, "max_abs_estimate": r["max_abs_estimate"] + 1e-8}, "theorem"),
    ("td_bound", "verify_td_bound_d6",
     lambda r: {**r, "max_abs_estimate": 1 - 1e-11}, "outside"),
    ("td_bound", "verify_td_bound_d4",
     lambda r: {**r, "zero_face_identity_exact": False}, "zero-face"),
    ("td_bound", "sphere4_product_sup", _scaled("value", 1 + 1e-6), "d^(-d/2)"),
    ("td_bound", "r5_level_set_face",
     _shift_points(lambda pt: abs(pt[0] - workloads.DIAG_PLUS) < 1e-6, 2e-6), "diagonal"),
    ("td_bound", "r5_level_set_face",
     _shift_points(lambda pt: abs(min(pt)) < 1e-9, 1e-7), "(2 - sqrt 2)/4"),
    ("certify", "verify_signature_d3_7", lambda o: _edit_json(o, _fail_first_check), "failed checks"),
    ("certify", "construct_td_d10", lambda o: _edit_json(o, _bump_td_coefficient), "recursion"),
    ("certify", "construct_td_d10",
     lambda o: _edit_json(o, _set_item("leading_coefficient", 184223744001)), "leading coefficient"),
    ("certify", "construct_r5", lambda o: _edit_json(o, _bump_b), "constant b"),
    ("certify", "rd_table_11", _bump_r11, "table"),
    ("certify", "verify_combi_d3_12", lambda o: (1, o[1]), "exit code"),
]


def test_checks_accept_the_program(answers):
    for name, (wl, outputs) in answers.items():
        assert _errors(wl, outputs) == [], name


def test_failed_operations_are_the_known_ones(answers):
    wl, outputs = answers["lp"]
    assert sorted(op for op, _ in wl.ops if op not in outputs) == [
        "sq_deg5_full_g8", "x1x2x3x4_deg3_full_g12"]
    for name in ("oracle", "td_bound", "certify"):
        wl, outputs = answers[name]
        assert len(outputs) == len(wl.ops), name


@pytest.mark.parametrize("workload,op,perturb,message", CASES,
                         ids=[f"{w}-{o}-{m}" for w, o, _, m in CASES])
def test_check_rejects_perturbed_answer(answers, workload, op, perturb, message):
    wl, outputs = answers[workload]
    changed = dict(outputs)
    changed[op] = [perturb(outputs[op][0])]
    errors = _errors(wl, changed)
    assert any(message in e for e in errors), errors


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_check_rejects_answers_that_change_between_passes(answers, workload):
    wl, outputs = answers[workload]
    _, op, perturb, _ = next(c for c in CASES if c[0] == workload)
    changed = dict(outputs)
    changed[op] = [outputs[op][0], perturb(outputs[op][0])]
    assert any("differ" in e for e in _errors(wl, changed))


def test_recursion_reference_matches_the_paper():
    # T_d(1/d, ..., 1/d) = 1 for every d of the paper's table
    for d in workloads.RD_TABLE:
        assert workloads._td_value(d, [Fraction(1, d)] * d) == 1
    assert math.isclose(workloads.R5_DEVIATION, 6.2655e-5, rel_tol=1e-4)
