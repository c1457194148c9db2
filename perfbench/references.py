"""Discrete minimax values of the ``lp`` workload, recomputed with HiGHS.

For each problem, min_c max_i |f(x_i) - sum_k c_k phi_k(x_i)| is solved as
the primal LP  min t  s.t.  -t <= f - Phi c <= t  with scipy's HiGHS dual
simplex.  The points are the program's grid (they are the problem's input);
the basis matrix is built here from its own monomial enumeration, so only
the span is shared with the program.  On simplex domains the monomials are
taken in u = 2x - 1, which spans the same space and is better conditioned.

Run ``python3 perfbench/references.py`` from the repository root to print
the table of reference values.
"""

from __future__ import annotations

import sys
from itertools import product
from pathlib import Path


def _exponents(nvars, degree, kind, sphere):
    exps = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    if kind in ("even", "even-symmetric"):
        exps = [e for e in exps if all(v % 2 == 0 for v in e)]
    if sphere:
        exps = [e for e in exps if e[-1] <= 1]
    return exps


def basis_matrix(points, degree, kind, simplex_like, sphere):
    """Columns spanning the approximant space of the given basis kind; the
    symmetric kinds sum the monomials of one exponent multiset."""
    import numpy as np
    x = 2 * points - 1 if simplex_like else points
    exps = _exponents(points.shape[1], degree, kind, sphere)
    cols = {}
    for e in exps:
        key = tuple(sorted(e, reverse=True)) if "symmetric" in kind else e
        col = np.prod(x ** np.array(e, dtype=float), axis=1)
        cols[key] = cols[key] + col if key in cols else col
    return np.column_stack(list(cols.values()))


def highs_value(spec) -> float:
    """HiGHS's discrete minimax value for one ``workloads.LP_PROBLEMS`` row."""
    import numpy as np
    from scipy.optimize import linprog
    from chebydev import bestapprox, domains
    _, target, degree, kind, dim, basis, grid, _ = spec
    dom = domains.Domain(kind, dim)
    pts = bestapprox.approx_grid(dom, grid)
    f = np.prod(pts ** np.array(target, dtype=float), axis=1)
    Phi = basis_matrix(pts, degree, basis, kind in ("simplex", "simplex_face"),
                       kind == "sphere")
    scale = float(np.max(np.abs(f)))
    n, k = Phi.shape
    ones = np.ones((n, 1))
    A = np.vstack([np.hstack([-Phi, -ones]), np.hstack([Phi, -ones])])
    b = np.concatenate([-f, f]) / scale
    c = np.zeros(k + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * k + [(0, None)],
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on {spec[0]}: {res.message}")
    return float(res.x[-1]) * scale


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from workloads import LP_PROBLEMS
    print("problem,highs_value,continuum_value")
    for spec in LP_PROBLEMS:
        print(f"{spec[0]},{highs_value(spec)!r},{spec[7]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
