"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces selected ``chebydev`` functions and ``Poly``
methods with wrappers, at every place where callers look them up: the
attribute of each loaded ``chebydev`` module that holds the function (so
``bestapprox.simplex_solve`` is wrapped as well as ``lp.simplex_solve``), and
the class attribute for methods.  ``uninstall()`` puts the originals back.

A wrapper either records a span -- (name, start, end, parent span, problem
id) -- or, for functions called per pivot or per polynomial, only counts.
The spans of the first traced pass stay in memory until ``write()``; later
passes only add to their own per-pass tallies.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


# (module, attribute, layer name, record a span?, counts from the arguments,
# counts from the result).  The count functions return {suffix: increment};
# result counts are taken only when the call returns.
TARGETS = [
    ("polycore", "Poly.eval_grid", "polycore.eval_grid", True,
     lambda a: {"term_points": len(a[1]) * len(a[0].terms)}, None),
    ("polycore", "Poly.eval", "polycore.eval", True, None, None),
    ("polycore", "Poly.compose", "polycore.compose", True, None, None),
    ("polycore", "Poly.__mul__", "polycore.mul", True, None, None),
    ("polycore", "Poly.__init__", "polycore.polys_built", False, None, None),
    ("lp", "simplex_solve", "lp.simplex_solve", True,
     lambda a: {"rows": a[0].shape[0], "columns": a[0].shape[1]}, None),
    ("lp", "_simplex_solve_once", "lp.attempts", False, None, None),
    ("lp", "_pivot", "lp.pivots", False, None, None),
    ("supnorm", "sup_norm", "supnorm.sup_norm", True, None, None),
    ("supnorm", "critical_points", "supnorm.critical_points", True,
     None, lambda r: {"points_out": len(r)}),
    ("supnorm", "_newton_critical_points", "supnorm.newton", True,
     lambda a: {"starts": len(a[1])}, lambda r: {"points_out": len(r)}),
    ("supnorm", "_sphere_critical_points", "supnorm.newton", True,
     lambda a: {"starts": len(a[1])}, lambda r: {"points_out": len(r)}),
    ("supnorm", "verify_td_bound", "supnorm.verify_td_bound", True, None, None),
    ("supnorm", "level_set", "supnorm.level_set", True, None, None),
    ("bestapprox", "remez_exchange", "bestapprox.remez_exchange", True,
     None, lambda r: {"exchange_iterations": r.exchange_iterations}),
    ("bestapprox", "_minimax_on", "bestapprox.minimax", False,
     lambda a: {"points": len(a[1])}, None),
    ("bestapprox", "_scaled_basis", "bestapprox.scaled_basis", True, None, None),
    ("bestapprox", "_independent_columns", "bestapprox.independent_columns", True, None, None),
    ("bestapprox", "_equioscillation_fit", "bestapprox.equioscillation_fit", True, None, None),
    ("constructions", "build_td", "constructions.build_td", True, None, None),
    ("constructions", "derive_r5_constants", "constructions.derive_r5_constants", True, None, None),
    ("signatures", "orbit", "signatures.orbit", True,
     None, lambda r: {"points_out": len(r)}),
    ("signatures", "certify_lower_bound", "signatures.certify_lower_bound", True, None, None),
    ("signatures", "solve_signature_weights", "signatures.solve_signature_weights", True, None, None),
    ("signatures", "annihilation_residual", "signatures.annihilation_residual", True, None, None),
    ("symfun", "monomial_symmetric", "symfun.monomial_symmetric", True, None, None),
    ("cli", "main", "cli.main", True, None, None),
    ("cli", "_emit", "cli.emit", False,
     lambda a: {"out_bytes": len(a[0].encode())}, None),
]

# the per-layer metrics the benchmark reports: (name, unit, source), where
# source is ("count", key), ("self", layer) or ("diff", key_a, key_b)
METRICS = [
    ("polycore.eval_grid.calls", "count", ("count", "polycore.eval_grid.calls")),
    ("polycore.eval_grid.term_points", "count", ("count", "polycore.eval_grid.term_points")),
    ("polycore.eval_grid.self_s", "s", ("self", "polycore.eval_grid")),
    ("polycore.eval.calls", "count", ("count", "polycore.eval.calls")),
    ("polycore.eval.self_s", "s", ("self", "polycore.eval")),
    ("polycore.compose.calls", "count", ("count", "polycore.compose.calls")),
    ("polycore.compose.self_s", "s", ("self", "polycore.compose")),
    ("polycore.mul.self_s", "s", ("self", "polycore.mul")),
    ("polycore.polys_built", "count", ("count", "polycore.polys_built.calls")),
    ("lp.simplex_solve.calls", "count", ("count", "lp.simplex_solve.calls")),
    ("lp.simplex_solve.self_s", "s", ("self", "lp.simplex_solve")),
    ("lp.pivots", "count", ("count", "lp.pivots.calls")),
    ("lp.retries", "count", ("diff", "lp.attempts.calls", "lp.simplex_solve.calls")),
    ("lp.rows", "count", ("count", "lp.simplex_solve.rows")),
    ("lp.columns", "count", ("count", "lp.simplex_solve.columns")),
    ("supnorm.sup_norm.calls", "count", ("count", "supnorm.sup_norm.calls")),
    ("supnorm.sup_norm.self_s", "s", ("self", "supnorm.sup_norm")),
    ("supnorm.critical_points.calls", "count", ("count", "supnorm.critical_points.calls")),
    ("supnorm.critical_points.self_s", "s", ("self", "supnorm.critical_points")),
    ("supnorm.critical_points.points_out", "count", ("count", "supnorm.critical_points.points_out")),
    ("supnorm.newton.starts", "count", ("count", "supnorm.newton.starts")),
    ("supnorm.newton.points_out", "count", ("count", "supnorm.newton.points_out")),
    ("supnorm.newton.self_s", "s", ("self", "supnorm.newton")),
    ("supnorm.verify_td_bound.self_s", "s", ("self", "supnorm.verify_td_bound")),
    ("supnorm.level_set.self_s", "s", ("self", "supnorm.level_set")),
    ("bestapprox.remez_exchange.calls", "count", ("count", "bestapprox.remez_exchange.calls")),
    ("bestapprox.remez_exchange.self_s", "s", ("self", "bestapprox.remez_exchange")),
    ("bestapprox.exchange_iterations", "count", ("count", "bestapprox.remez_exchange.exchange_iterations")),
    ("bestapprox.minimax_solves", "count", ("count", "bestapprox.minimax.calls")),
    ("bestapprox.minimax_points", "count", ("count", "bestapprox.minimax.points")),
    ("bestapprox.scaled_basis.self_s", "s", ("self", "bestapprox.scaled_basis")),
    ("bestapprox.independent_columns.self_s", "s", ("self", "bestapprox.independent_columns")),
    ("bestapprox.equioscillation_fit.calls", "count", ("count", "bestapprox.equioscillation_fit.calls")),
    ("bestapprox.equioscillation_fit.self_s", "s", ("self", "bestapprox.equioscillation_fit")),
    ("constructions.build_td.calls", "count", ("count", "constructions.build_td.calls")),
    ("constructions.build_td.self_s", "s", ("self", "constructions.build_td")),
    ("constructions.derive_r5_constants.self_s", "s", ("self", "constructions.derive_r5_constants")),
    ("signatures.orbit.calls", "count", ("count", "signatures.orbit.calls")),
    ("signatures.orbit.points_out", "count", ("count", "signatures.orbit.points_out")),
    ("signatures.orbit.self_s", "s", ("self", "signatures.orbit")),
    ("signatures.certify_lower_bound.self_s", "s", ("self", "signatures.certify_lower_bound")),
    ("signatures.solve_signature_weights.self_s", "s", ("self", "signatures.solve_signature_weights")),
    ("signatures.annihilation_residual.self_s", "s", ("self", "signatures.annihilation_residual")),
    ("symfun.monomial_symmetric.self_s", "s", ("self", "symfun.monomial_symmetric")),
    ("cli.main.calls", "count", ("count", "cli.main.calls")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("cli.out_bytes", "bytes", ("count", "cli.emit.out_bytes")),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, problem]
        self.kept: list[list] = []        # the spans of the first traced pass
        self.problem: str | None = None
        self._stack: list[list] = []      # [span index, child time]
        self._saved: list[tuple] = []
        self.reset_pass()

    def reset_pass(self):
        """Start the per-pass tallies of counts, self times and spans."""
        if not self.kept:
            self.kept = self.spans
        self.spans = []
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)

    def _wrap(self, fn, name, span, arg_counts, result_counts):
        tracer = self

        def tally(args, result, returned):
            c = tracer.counts
            c[name + ".calls"] += 1
            if arg_counts is not None:
                for key, inc in arg_counts(args).items():
                    c[f"{name}.{key}"] += inc
            if returned and result_counts is not None:
                for key, inc in result_counts(result).items():
                    c[f"{name}.{key}"] += inc

        if not span:
            def counted(*args, **kwargs):
                returned, result = False, None
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                    return result
                finally:
                    tally(args, result, returned)
            return counted

        def spanned(*args, **kwargs):
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1][0] if stack else None, tracer.problem]
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(record)
            stack.append(frame)
            returned, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                record[1], record[2] = start, end
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tally(args, result, returned)
        return spanned

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "chebydev" or name.startswith("chebydev.")}
        for modname, attr, name, span, arg_counts, result_counts in TARGETS:
            owner_mod = modules[f"chebydev.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner_mod, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, span, arg_counts, result_counts))
                continue
            original = getattr(owner_mod, attr)
            wrapped = self._wrap(original, name, span, arg_counts, result_counts)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        """This pass's per-layer values, keyed by metric name."""
        out = {}
        for name, _unit, source in METRICS:
            if source[0] == "self":
                out[name] = self.self_s.get(source[1], 0.0)
            elif source[0] == "diff":
                out[name] = self.counts.get(source[1], 0) - self.counts.get(source[2], 0)
            else:
                out[name] = self.counts.get(source[1], 0)
        return out

    def write(self, path):
        """Write the first traced pass's spans as JSON lines, one [name,
        start, end, parent, problem] list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.kept or self.spans:
                fh.write(json.dumps(record) + "\n")
