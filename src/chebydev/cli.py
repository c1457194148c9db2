"""Command-line front end.

Subcommands
-----------
construct   build a family member (r3, r5, td) and emit a JSON report
verify      run verification suites (signature, supnorm, laplacian, cubature,
            determinant, combi, all) over a dimension range
approx      best-approximation oracle for a monomial target
rd-table    CSV table of the scale constants r_d with prime factorizations (a
            factor marked "?" is >= 3.3e24 and only a Miller-Rabin probable prime)
surface     CSV samples of U_3 / U_5 over a triangular grid

Exit codes: 0 success, 1 failed or empty verification, 2 usage error, 3
numerical failure.  JSON reports embed the version and the seed and
tolerances the command reads; identical flags and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .bestapprox import ApproxProblem, RankError, SpanError, remez_exchange
from .constructions import (MR_PROVEN_BOUND, build_r5_repaired, build_r5_report,
                            build_td, build_u3, build_u5, compute_rd, d5_factorized_form,
                            dd_determinant, derive_r5_constants, prime_factorization,
                            r5_face_defect, vandermonde_factor_report)
from .domains import ball, simplex, sphere
from .lp import LPError
from .polycore import Poly, PolyError, laplacian, poly_to_json_dict
from .signatures import (Certificate, annihilation_residual, build_l_functional,
                         certify_lower_bound, combi_identity, cubature_check,
                         r5_signature, solve_signature_weights)
from .supnorm import signed_max, verify_td_bound

DEFAULT_TOLERANCES = {
    "annihilation": 1e-8,
    "supnorm": 1e-6,
    "max_principle": 1e-8,
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _parse_range(spec: str) -> list[int]:
    lo, sep, hi = spec.partition("..")
    try:
        ds = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        ds = []
    if not ds or ds[0] < 3:
        sys.stderr.write("verify: --d expects an integer or an ascending range lo..hi, "
                         "from 3 up (T_d is defined for d >= 3)\n")
        raise SystemExit(EXIT_USAGE)
    return ds


def _parse_tols(pairs: list[str]) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        try:
            tols[name] = float(value) if name in tols else math.nan
        except ValueError:
            tols[name] = math.nan
        if not 0 <= tols[name] < math.inf:
            sys.stderr.write(f"verify: --tol takes NAME=VALUE, NAME one of "
                             f"{', '.join(DEFAULT_TOLERANCES)}, VALUE finite and >= 0\n")
            raise SystemExit(EXIT_USAGE)
    return tols


# --------------------------------------------------------------------------
# construct
# --------------------------------------------------------------------------


def cmd_construct(args) -> int:
    if args.family in ("td", "r3"):
        d = 3 if args.family == "r3" else args.d
        if d is None or d < 3:
            sys.stderr.write("construct: d must be >= 3 for the td family\n")
            return EXIT_USAGE
        report = build_td(d)
        payload = {
            "family": args.family,
            "dimension": report.dimension,
            "leading_coefficient": report.r_value,
            "r_value": report.r_value,
            "polynomial": poly_to_json_dict(report.polynomial),
            "construction_log": report.construction_log,
            "config": {"version": __version__},
        }
    else:
        report = build_r5_report()
        consts = report.constants
        defect = r5_face_defect(consts)
        payload = {
            "family": "r5",
            "dimension": 3,
            "constants": {
                "d_root": consts.d_root, "a": consts.a, "b": consts.b,
                "c": consts.c, "leading": consts.leading,
            },
            "leading_coefficient": consts.leading,
            "r_value": consts.leading,
            "polynomial": poly_to_json_dict(report.polynomial),
            "construction_log": report.construction_log,
            "face_defect": defect,
            "repaired_polynomial": poly_to_json_dict(build_r5_repaired(consts)),
            "config": {"version": __version__},
        }
    _emit(_json(payload), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _suite_signature(ds, tols, seed):
    checks = []
    for d in ds:
        fam = build_td(d)
        target = Poly.monomial((1,) * d)
        level = Fraction(1, fam.r_value)
        candidate = target - level * fam.polynomial
        support = build_l_functional(d)
        cert = Certificate(target=target, candidate=candidate, level=level,
                           degree=d - 1, support=support, domain=simplex(d))
        res = certify_lower_bound(cert, tol=0)
        checks.append({"name": f"certificate_td_exact_d{d}", "d": d,
                       "passed": res.certified, "failures": res.failures})
        sol = solve_signature_weights(support, d - 1, d)
        ok = sol.feasible and all(w > 0 for w in sol.orbit_weights)
        checks.append({"name": f"signature_weights_positive_d{d}", "d": d,
                       "passed": ok, "reason": sol.reason})
    if 3 in ds:
        consts = derive_r5_constants()
        sig = r5_signature(consts)
        resid = annihilation_residual(sig, 4, 3)
        scale = sum(sig.weights)
        checks.append({
            "name": "r5_functional_annihilates_degree4", "d": 3,
            "passed": bool(resid <= tols["annihilation"] * scale),
            "residual": float(resid)})
    return checks


def _suite_supnorm(ds, tols, seed):
    checks = []
    for d in ds:
        rep = verify_td_bound(d, resolution=max(6, 14 - d), seed=seed,
                              tol=tols["supnorm"])
        entry = {"name": f"td_bound_d{d}", "d": d,
                 "max_abs_estimate": rep["max_abs_estimate"],
                 "conjecture_mode": rep["conjecture_mode"]}
        if rep["conjecture_mode"]:
            entry["passed"] = True   # exploratory, non-asserting
            entry["finding"] = ("within bound" if rep["passed"]
                                else "bound exceeded: reported as a finding")
        else:
            entry["passed"] = rep["passed"]
        checks.append(entry)
    return checks


def _suite_laplacian(ds, tols, seed):
    checks = []
    for d in ds:
        fam = build_td(d)
        lap = laplacian(fam.polynomial)
        expected = Fraction((-1) ** (d - 1) * 8 * d)
        constant = lap.coefficient((0,) * d)
        is_const = set(lap.terms) <= {(0,) * d}
        checks.append({
            "name": f"laplacian_constant_d{d}", "d": d,
            "passed": bool(is_const and constant == expected),
            "constant": constant, "expected": expected})
        if d <= 5:
            sign = (-1) ** (d - 1)
            p = (sign * fam.polynomial).to_float64()
            total, boundary = signed_max(p, simplex(d), resolution=max(6, 12 - d), seed=seed)
            checks.append({
                "name": f"subharmonic_max_on_boundary_d{d}", "d": d,
                "passed": bool(abs(total - boundary) <= tols["max_principle"]),
                "interior_and_boundary_max": total, "boundary_max": boundary})
    return checks


def _suite_cubature(ds, tols, seed):
    rep = cubature_check()
    return [{"name": "cubature_degree2_exact", "passed": rep["degree2_exact"]},
            {"name": "cubature_degree3_separation",
             "passed": rep["degree3_witness"] is not None,
             "witness": rep["degree3_witness"]}]


def _suite_determinant(ds, tols, seed):
    checks = []
    if any(d == 5 for d in ds):
        exact = dd_determinant(5) == d5_factorized_form()
        checks.append({"name": "d5_factorization_exact", "d": 5, "passed": exact})
    for d in ds:
        if d == 5 or d > 6:
            continue
        rep = vandermonde_factor_report(d)
        checks.append({"name": f"vandermonde_divides_d{d}", "d": d,
                       "passed": True,  # informational: the claim is reported
                       "divides": rep["vandermonde_divides"]})
    return checks


def _suite_combi(ds, tols, seed):
    checks = []
    for d in ds:
        zero_ok = all(combi_identity(d, k) == 0 for k in range(1, d))
        top_ok = combi_identity(d, d) == (-1) ** d * math.factorial(d)
        checks.append({"name": f"combi_d{d}", "d": d,
                       "passed": bool(zero_ok and top_ok)})
    return checks


SUITES = {
    "signature": _suite_signature,
    "supnorm": _suite_supnorm,
    "laplacian": _suite_laplacian,
    "cubature": _suite_cubature,
    "determinant": _suite_determinant,
    "combi": _suite_combi,
}


def cmd_verify(args) -> int:
    tols = _parse_tols(args.tol)
    ds = _parse_range(args.d)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(SUITES[name](ds, tols, args.seed))
    # a run that checked nothing (say, d beyond every suite's range) passes nothing
    all_passed = bool(checks) and all(c["passed"] for c in checks)
    payload = {
        "suite": args.suite,
        "d_range": ds,
        "checks": checks,
        "all_passed": all_passed,
        "config": {"version": __version__, "seed": args.seed, "tolerances": tols},
    }
    _emit(_json(payload), args.out)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# approx / rd-table / surface
# --------------------------------------------------------------------------


def cmd_approx(args) -> int:
    try:
        exponents = tuple(int(v) for v in args.monomial.split(","))
    except ValueError:
        sys.stderr.write("approx: --monomial expects comma-separated integers\n")
        return EXIT_USAGE
    if min(exponents) < 0 or args.degree < 0 or args.grid < 1:
        sys.stderr.write("approx: --monomial and --degree must be >= 0, --grid >= 1\n")
        return EXIT_USAGE
    d = len(exponents)
    domain = {"simplex": simplex(d), "ball": ball(d), "sphere": sphere(d)}[args.domain]
    basis = args.basis
    if basis == "auto":
        basis = "symmetric" if len(set(exponents)) == 1 else "full"
    prob = ApproxProblem(target=Poly.monomial(exponents), degree=args.degree,
                         domain=domain, basis=basis, grid=args.grid)
    try:
        res = remez_exchange(prob, seed=args.seed)
    except SpanError as exc:
        sys.stderr.write(f"approx: --basis {basis} on {domain.label()}: {exc}\n")
        return EXIT_USAGE
    except RankError as exc:
        sys.stderr.write(f"approx: --grid {args.grid} is too coarse, raise it: {exc}\n")
        return EXIT_USAGE
    except (LPError, PolyError) as exc:
        sys.stderr.write(f"approx: solver failed: {exc}\n")
        return EXIT_NUMERICAL
    if res.warning:
        sys.stderr.write(f"approx: {res.warning}\n")
        return EXIT_NUMERICAL
    payload = {
        "problem": {
            "monomial": list(exponents), "degree": args.degree,
            "domain": domain.label(), "basis": basis, "grid": args.grid,
        },
        "deviation": res.deviation,
        "deviation_lower": res.deviation_lower,
        "deviation_upper": res.deviation_upper,
        "coefficients": [float(c) for c in res.coefficients],
        "extrema": [{"point": list(p), "sign": s} for p, s in res.residual_extrema],
        "iterations": res.exchange_iterations,
        "equioscillation_count": res.equioscillation_count,
        "config": {"version": __version__, "seed": args.seed},
    }
    _emit(_json(payload), args.out)
    return EXIT_OK


def cmd_rd_table(args) -> int:
    if args.max_d < 3:
        sys.stderr.write("rd-table: --max-d must be >= 3\n")
        return EXIT_USAGE
    lines = ["d,r_d,prime_factorization"]
    for d in range(3, args.max_d + 1):
        rd = compute_rd(d, "closed_form")
        if rd != compute_rd(d, "recursive"):
            sys.stderr.write(f"rd-table: method disagreement at d={d}\n")
            return EXIT_NUMERICAL
        fact = prime_factorization(rd)
        fact_str = "*".join(str(p) + "?" * (p >= MR_PROVEN_BOUND) + (f"^{e}" if e > 1 else "")
                            for p, e in fact.items())
        lines.append(f"{d},{rd},{fact_str}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_surface(args) -> int:
    if args.grid < 1:
        sys.stderr.write("surface: --grid must be >= 1\n")
        return EXIT_USAGE
    poly = (build_u3().to_float64() if args.poly == "u3"
            else build_u5(derive_r5_constants()))
    m = args.grid
    lines = ["x,y,value"]
    for i in range(m + 1):
        for j in range(m + 1 - i):
            x, y = i / m, j / m
            lines.append(f"{x!r},{y!r},{poly.eval((x, y))!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebydev",
        description="Polynomials of least deviation from zero on simplex, "
                    "ball, and sphere: constructions, certificates, minimax oracles.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("construct", help="build a family member")
    p.add_argument("--family", choices=["r3", "r5", "td"], required=True)
    p.add_argument("--d", type=int, default=None)
    out(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], required=True)
    p.add_argument("--d", default="3..5", help="dimension or ascending range, e.g. 3..5")
    p.add_argument("--tol", action="append", default=[],
                   metavar="NAME=VALUE", help="tolerance override")
    p.add_argument("--seed", type=int, default=0)
    out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("approx", help="best approximation of a monomial")
    p.add_argument("--monomial", required=True, help="comma-separated exponents")
    p.add_argument("--domain", choices=["simplex", "ball", "sphere"],
                   default="simplex")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--basis", default="auto",
                   choices=["auto", "full", "symmetric", "even", "even-symmetric"])
    p.add_argument("--seed", type=int, default=0)
    out(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("rd-table", help="emit the r_d table as CSV")
    p.add_argument("--max-d", type=int, required=True)
    out(p)
    p.set_defaults(func=cmd_rd_table)

    p = sub.add_parser("surface", help="triangular-grid samples of U_3 / U_5")
    p.add_argument("--poly", choices=["u3", "u5"], required=True)
    p.add_argument("--grid", type=int, default=32)
    out(p)
    p.set_defaults(func=cmd_surface)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolyError, LPError) as exc:
        sys.stderr.write(f"chebydev: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
