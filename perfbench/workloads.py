"""The benchmark's four workloads: problem lists, operations and checks.

Each workload is built by ``build(name, scratch_dir)`` into a ``Workload``:
a list of named operations (zero-argument callables into the public
``chebydev`` API), a rule that says when an operation failed, and a check
that compares the outputs of every timed pass with values computed apart
from the program (the paper's closed forms, an independent LP solver, exact
``Fraction`` evaluation) or with properties the method must have.

The problem lists are fixed; the benchmark seed only sets the order in which
a pass runs them and the random points used by the exact spot checks.
Everything under ``chebydev`` is imported inside the builders, so the set-up
timing in ``run.py`` can import the package afresh several times.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# --------------------------------------------------------------------------
# values quoted in the paper, used as independent references
# --------------------------------------------------------------------------

R5_B = 21.8935834                      # the constant b of the degree-6 family
R5_A = 28.5926243
R5_ROOT = -1.208972894
R5_DEVIATION = 1.0 / (27 ** 2 * R5_B)  # E((x1 x2 x3)^2) from degree <= 5
DIAG_MINUS = 0.4588164122              # diagonal level-set parameters of R_5
DIAG_PLUS = 0.1343303216
EDGE_POINT = (2 - math.sqrt(2)) / 4
RD_TABLE = {3: 72, 4: 896, 5: 14400, 6: 283392, 7: 6598144, 8: 177373184,
            9: 5406289920, 10: 184223744000, 11: 6939874934784}


@dataclass
class Workload:
    ops: list[tuple[str, Callable[[], object]]]
    # failed(op, output) -> True when the program itself reported failure
    failed: Callable[[str, object], bool]
    # check(outputs, rng) -> list of failure messages; outputs maps each
    # op to the outputs of the timed passes in which it did not fail
    check: Callable[[dict, random.Random], list[str]]


def _raised(op, out) -> bool:
    return isinstance(out, BaseException)


def _close(got, want, rel=None, abs_=None) -> bool:
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    if rel is not None:
        return abs(got - want) <= rel * abs(want)
    return abs(got - want) <= abs_


def _same_across_passes(op, outs, key, errors):
    """Deterministic engines give the same answer in every pass."""
    first = key(outs[0])
    for out in outs[1:]:
        if key(out) != first:
            errors.append(f"{op}: output differs between passes")
            return


# --------------------------------------------------------------------------
# oracle: Remez exchange on the criterion-06/07 problems
# --------------------------------------------------------------------------


def _build_oracle(scratch: Path) -> Workload:
    from chebydev import Poly, ball, simplex, sphere
    from chebydev import bestapprox, cli

    mono = Poly.monomial
    approx_out = str(scratch / "oracle-approx.json")

    def remez(target, degree, domain, basis, grid):
        prob = bestapprox.ApproxProblem(mono(target), degree, domain, basis, grid)
        return lambda: bestapprox.remez_exchange(prob, seed=0)

    def cli_approx():
        rc = cli.main(["approx", "--monomial", "2,2,2", "--degree", "5",
                       "--grid", "10", "--out", approx_out])
        return rc, Path(approx_out).read_bytes() if rc == 0 else b""

    def mixed(k, n, grid):
        return lambda: bestapprox.ball_mixed_monomial_check(k, n, grid=grid, seed=0)

    ops = [
        ("simplex3_x1x2x3_deg2_sym_g16", remez((1, 1, 1), 2, simplex(3), "symmetric", 16)),
        ("cli_approx_sq_deg5_g10", cli_approx),
        ("sphere3_x1x2x3_deg2_sym_g40", remez((1, 1, 1), 2, sphere(3), "symmetric", 40)),
        ("ball3_mixed_1_2_g10", mixed(1, 2, 10)),
        ("ball3_mixed_2_3_g6", mixed(2, 3, 6)),
    ]

    def failed(op, out):
        return _raised(op, out) or (op.startswith("cli_") and out[0] == 3)

    def check(outputs, rng):
        errors = []
        for op, outs in outputs.items():
            if not outs:
                continue
            if op.startswith("cli_"):
                _same_across_passes(op, outs, lambda o: o, errors)
                rc, text = outs[0]
                if rc != 0:
                    errors.append(f"{op}: exit code {rc}")
                    continue
                rep = json.loads(text)
                lo, hi = rep["deviation_lower"], rep["deviation_upper"]
                if not _close(lo, R5_DEVIATION, rel=1e-8):
                    errors.append(f"{op}: deviation {lo!r} is not (27^2 b)^-1 = {R5_DEVIATION!r}")
            elif op.startswith("ball3_mixed"):
                _same_across_passes(op, outs, lambda o: (o["deviation"], o["deviation_upper"]), errors)
                rep = outs[0]
                lo, hi = rep["deviation"], rep["deviation_upper"]
                want = 2.0 ** (1 - rep["n"])
                if not _close(lo, want, abs_=1e-4):
                    errors.append(f"{op}: deviation {lo!r} is not 2^(1-n) = {want!r}")
            else:
                _same_across_passes(op, outs, lambda o: (o.deviation_lower, o.deviation_upper), errors)
                res = outs[0]
                lo, hi = res.deviation_lower, res.deviation_upper
                if op.startswith("simplex3"):
                    if not _close(lo, 1 / 72, abs_=1e-10):
                        errors.append(f"{op}: deviation {lo!r} is not 1/72")
                    if not (0 <= hi - lo < 1e-8):
                        errors.append(f"{op}: gap {hi - lo!r} is not below 1e-8")
                else:
                    if not _close(lo, 3 ** -1.5, abs_=1e-9):
                        errors.append(f"{op}: deviation {lo!r} is not 3^(-3/2)")
            if not lo <= hi:
                errors.append(f"{op}: lower bound {lo!r} exceeds upper bound {hi!r}")
        return errors

    return Workload(ops, failed, check)


# --------------------------------------------------------------------------
# lp: discrete minimax on fixed grids, no exchange
# --------------------------------------------------------------------------

# (name, target exponent, degree, domain kind, dimension, basis, grid,
#  continuum value of the problem, which no grid subset can exceed)
LP_PROBLEMS = [
    ("sq_deg5_sym_g8", (2, 2, 2), 5, "simplex", 3, "symmetric", 8, R5_DEVIATION),
    ("sq_deg5_sym_g12", (2, 2, 2), 5, "simplex", 3, "symmetric", 12, R5_DEVIATION),
    ("sq_deg5_sym_g16", (2, 2, 2), 5, "simplex", 3, "symmetric", 16, R5_DEVIATION),
    ("sq_deg5_sym_g24", (2, 2, 2), 5, "simplex", 3, "symmetric", 24, R5_DEVIATION),
    ("sq_deg5_full_g8", (2, 2, 2), 5, "simplex", 3, "full", 8, R5_DEVIATION),
    ("sq_deg5_full_g16", (2, 2, 2), 5, "simplex", 3, "full", 16, R5_DEVIATION),
    ("x1x2x3_deg2_full_g48", (1, 1, 1), 2, "simplex", 3, "full", 48, 1 / 72),
    ("x1x2x3x4_deg3_full_g8", (1, 1, 1, 1), 3, "simplex", 4, "full", 8, 1 / 896),
    ("x1x2x3x4_deg3_full_g12", (1, 1, 1, 1), 3, "simplex", 4, "full", 12, 1 / 896),
    ("ball3_sq_deg5_even_g12", (2, 2, 2), 5, "ball", 3, "even", 12, 1 / 72),
    ("sphere3_x1x2x3_deg2_full_g24", (1, 1, 1), 2, "sphere", 3, "full", 24, 3 ** -1.5),
    ("simplex4_x1x2x3x4_deg3_sym_g16", (1, 1, 1, 1), 3, "simplex", 4, "symmetric", 16, 1 / 896),
]

# grid pairs (coarse, fine) with the coarse grid contained in the fine one
LP_NESTED = [("sq_deg5_sym_g8", "sq_deg5_sym_g16"),
             ("sq_deg5_sym_g12", "sq_deg5_sym_g24")]
# a symmetric target gives the same value with the full and the symmetric basis
LP_SAME_VALUE = [("sq_deg5_full_g16", "sq_deg5_sym_g16")]


def _eval_terms(terms, points):
    """Float evaluation of a {exponent: coefficient} map, written apart
    from ``Poly.eval_grid``."""
    import numpy as np
    out = np.zeros(len(points))
    for exp, coef in terms.items():
        out += float(coef) * np.prod(points ** np.array(exp, dtype=float), axis=1)
    return out


def _build_lp(scratch: Path) -> Workload:
    from chebydev import Poly, bestapprox, domains

    problems = {}
    for spec in LP_PROBLEMS:
        name, target, degree, kind, dim, basis, grid, _ = spec
        problems[name] = (spec, bestapprox.ApproxProblem(
            Poly.monomial(target), degree, domains.Domain(kind, dim), basis, grid))
    ops = [(name, (lambda prob=prob: bestapprox.discrete_minimax(prob)))
           for name, (_, prob) in problems.items()]

    def failed(op, out):
        # the solver attaches a warning when its dual objective and the
        # recovered level disagree: it reports the answer as unreliable
        return _raised(op, out) or bool(out.warning)

    def check(outputs, rng):
        import numpy as np
        from references import highs_value   # imported after the timed passes
        errors = []
        value = {}
        for op, outs in outputs.items():
            if not outs:
                continue
            _same_across_passes(op, outs, lambda r: (r.deviation, r.coefficients.tobytes()), errors)
            spec, prob = problems[op]
            res = outs[0]
            t = res.deviation
            value[op] = t
            ref = highs_value(spec)
            if not _close(t, ref, rel=1e-9):
                errors.append(f"{op}: t = {t!r}, HiGHS gives {ref!r}")
            if t > spec[7] * (1 + 1e-12):
                errors.append(f"{op}: t = {t!r} exceeds the continuum value {spec[7]!r}")
            pts = bestapprox.approx_grid(prob.domain, prob.grid)
            resid = _eval_terms(prob.target.terms, pts)
            for c, phi in zip(res.coefficients, res.basis_polys):
                resid -= float(c) * _eval_terms(phi.terms, pts)
            closure = float(np.max(np.abs(resid)))
            if not _close(closure, t, rel=1e-8):
                errors.append(f"{op}: max|f - Phi c| = {closure!r} on the grid, t = {t!r}")
        for coarse, fine in LP_NESTED:
            if coarse in value and fine in value and value[fine] < value[coarse] * (1 - 1e-12):
                errors.append(f"refining {coarse} to {fine} lowered t")
        for a, b in LP_SAME_VALUE:
            if a in value and b in value and not _close(value[a], value[b], rel=1e-9):
                errors.append(f"{a} and {b} disagree: {value[a]!r} vs {value[b]!r}")
        return errors

    return Workload(ops, failed, check)


# --------------------------------------------------------------------------
# td_bound: the Newton sup-norm search, no LP
# --------------------------------------------------------------------------


def _td_value(d, x):
    """T_d at an exact point, from the paper's recursion and r_d table:
    T_3 = 72 e3 - 4 e1 + 4 e1^2 - 8 e2 + 1, T_k = r_k e_k - T_{k-1}."""
    e = [Fraction(1)] + [Fraction(0)] * d
    for xi in x:                      # coefficients of prod (1 + x_i s)
        for k in range(d, 0, -1):
            e[k] += xi * e[k - 1]
    value = 72 * e[3] - 4 * e[1] + 4 * e[1] ** 2 - 8 * e[2] + 1
    for k in range(4, d + 1):
        value = RD_TABLE[k] * e[k] - value
    return value


def _random_simplex_point(rng, d, denom=97):
    cuts = sorted(rng.randint(0, denom) for _ in range(d))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])]
    return [Fraction(p, denom) for p in parts]


def _build_td_bound(scratch: Path) -> Workload:
    from chebydev import Poly, build_r5, derive_r5_constants, simplex_face, sphere
    from chebydev import supnorm

    ops = []
    for d in (4, 5, 6):
        ops.append((f"verify_td_bound_d{d}",
                    lambda d=d: supnorm.verify_td_bound(d, resolution=max(6, 14 - d), seed=0)))
    for d in (3, 4, 5, 6):
        prod = Poly.monomial((1,) * d).to_float64()
        ops.append((f"sphere{d}_product_sup",
                    lambda d=d, prod=prod: supnorm.sup_norm(prod, sphere(d), 3, seed=0)))
    consts = derive_r5_constants()
    f = Poly.monomial((2, 2, 2)).to_float64()
    level = 1.0 / consts.leading
    p = f - level * build_r5(consts)
    ops.append(("r5_level_set_face",
                lambda: supnorm.level_set(f, p, level, simplex_face(3), tol=1e-9,
                                          resolution=48, seed=0)))

    def check(outputs, rng):
        from chebydev import build_td
        errors = []
        for op, outs in outputs.items():
            if not outs:
                continue
            if op.startswith("verify_td_bound"):
                _same_across_passes(op, outs, lambda r: r["max_abs_estimate"], errors)
                rep = outs[0]
                d, m = rep["d"], rep["max_abs_estimate"]
                if d <= 5 and not _close(m, 1.0, abs_=1e-9):
                    errors.append(f"{op}: max |T_{d}| = {m!r}, the theorem gives 1")
                if d >= 6 and not (1 - 1e-12 <= m <= 1 + 1e-6):
                    errors.append(f"{op}: max |T_{d}| = {m!r} outside [1 - 1e-12, 1 + 1e-6]")
                if not rep["zero_face_identity_exact"]:
                    errors.append(f"{op}: zero-face identity reported false")
                # the identity itself, exactly, at seeded random points
                td, lower = build_td(d).polynomial, build_td(d - 1).polynomial
                for _ in range(3):
                    y = _random_simplex_point(rng, d - 1)
                    i = rng.randrange(d)
                    x = y[:i] + [Fraction(0)] + y[i:]
                    if _exact_eval(td.terms, x) != -_exact_eval(lower.terms, y):
                        errors.append(f"{op}: T_{d} at {x} is not -T_{d - 1}")
                    if _exact_eval(td.terms, x) != _td_value(d, x):
                        errors.append(f"{op}: T_{d} at {x} disagrees with the recursion")
            elif op.startswith("sphere"):
                _same_across_passes(op, outs, lambda r: r.value, errors)
                d = int(op[len("sphere")])
                if not _close(outs[0].value, d ** (-d / 2), abs_=1e-8):
                    errors.append(f"{op}: sup {outs[0].value!r} is not d^(-d/2)")
            else:
                _same_across_passes(op, outs, lambda pts: pts, errors)
                pts = outs[0]
                diag = sorted({q[0] for q in pts if abs(q[0] - q[1]) < 1e-7})
                for want in (DIAG_MINUS, DIAG_PLUS):
                    if not any(abs(v - want) < 1e-6 for v in diag):
                        errors.append(f"{op}: no diagonal level-set point at {want}")
                edge = [q for pt in pts for q in pt
                        if abs(min(pt)) < 1e-9 and abs(q - EDGE_POINT) < 1e-4]
                if not edge or any(abs(q - EDGE_POINT) >= 1e-8 for q in edge):
                    errors.append(f"{op}: edge level-set points {edge} are not (2 - sqrt 2)/4")
        return errors

    return Workload(ops, _raised, check)


def _exact_eval(terms, x):
    total = Fraction(0)
    for exp, coef in terms.items():
        term = Fraction(coef)
        for e, v in zip(exp, x):
            if e:
                term *= v ** e
        total += term
    return total


# --------------------------------------------------------------------------
# certify: exact Fraction algebra through the command line
# --------------------------------------------------------------------------

CERTIFY_COMMANDS = [
    ("verify_signature_d3_7", ["verify", "--suite", "signature", "--d", "3..7"]),
    ("verify_determinant_d3_6", ["verify", "--suite", "determinant", "--d", "3..6"]),
    ("verify_combi_d3_12", ["verify", "--suite", "combi", "--d", "3..12"]),
    ("construct_td_d10", ["construct", "--family", "td", "--d", "10"]),
    ("construct_r5", ["construct", "--family", "r5"]),
    ("rd_table_11", ["rd-table", "--max-d", "11"]),
]


def _build_certify(scratch: Path) -> Workload:
    from chebydev import cli

    def command(name, argv):
        out = str(scratch / f"certify-{name}.out")

        def run():
            rc = cli.main(argv + ["--out", out])
            return rc, Path(out).read_bytes() if rc == 0 else b""
        return run

    ops = [(name, command(name, argv)) for name, argv in CERTIFY_COMMANDS]

    def failed(op, out):
        return _raised(op, out) or out[0] == 3

    def check(outputs, rng):
        errors = []
        for op, outs in outputs.items():
            if not outs:
                continue
            _same_across_passes(op, outs, lambda o: o, errors)
            rc, text = outs[0]
            if rc != 0:
                errors.append(f"{op}: exit code {rc}")
                continue
            if op.startswith("verify"):
                rep = json.loads(text)
                bad = [c["name"] for c in rep["checks"] if not c["passed"]]
                if not rep["all_passed"] or bad or not rep["checks"]:
                    errors.append(f"{op}: failed checks {bad}")
            elif op == "construct_td_d10":
                errors.extend(_check_td_json(op, json.loads(text), rng))
            elif op == "construct_r5":
                consts = json.loads(text)["constants"]
                for key, want in (("d_root", R5_ROOT), ("a", R5_A), ("b", R5_B)):
                    if not _close(consts[key], want, abs_=1e-6):
                        errors.append(f"{op}: constant {key} = {consts[key]!r}, paper {want}")
                if not _close(consts["leading"], 27 ** 2 * R5_B, rel=1e-8):
                    errors.append(f"{op}: leading {consts['leading']!r} is not 27^2 b")
            else:
                rows = text.decode().split()[1:]
                table = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows}
                if table != RD_TABLE:
                    errors.append(f"{op}: r_d table {table} differs from the paper's")
                for row in rows:
                    d, rd, fact = row.split(",")
                    prod = math.prod(int(b) ** int(e or 1) for b, _, e in
                                     (f.partition("^") for f in fact.split("*")))
                    if prod != int(rd):
                        errors.append(f"{op}: factorization {fact} of r_{d} multiplies to {prod}")
        return errors

    return Workload(ops, failed, check)


def _check_td_json(op, rep, rng):
    errors = []
    d = rep["dimension"]
    if rep["leading_coefficient"] != RD_TABLE[d]:
        errors.append(f"{op}: leading coefficient {rep['leading_coefficient']} is not r_{d}")
    terms = {tuple(t["exp"]): Fraction(t["coef"]) for t in rep["polynomial"]["terms"]}
    if _exact_eval(terms, [Fraction(1, d)] * d) != 1:
        errors.append(f"{op}: T_{d}(1/d, ..., 1/d) is not 1")
    for _ in range(3):
        x = _random_simplex_point(rng, d)
        if _exact_eval(terms, x) != _td_value(d, x):
            errors.append(f"{op}: T_{d} at {x} disagrees with the recursion")
    top = {e: c for e, c in terms.items() if sum(e) == d}
    if top != {(1,) * d: Fraction(RD_TABLE[d])}:
        errors.append(f"{op}: degree-{d} part is not r_{d} x1...x{d}")
    return errors


BUILDERS = {
    "oracle": _build_oracle,
    "lp": _build_lp,
    "td_bound": _build_td_bound,
    "certify": _build_certify,
}


def build(name: str, scratch: Path) -> Workload:
    return BUILDERS[name](scratch)
