"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it): the program is
imported from ``src/`` next to this directory, never from an installed copy.
Everything runs in this one single-threaded process; BLAS and OpenMP are held
to one thread before numpy loads.

One run: set-up (fresh import of ``chebydev`` plus building the workload's
inputs, repeated and reported as a median), one untimed warm-up pass, then
timed passes over the whole problem list until ``--seconds`` have passed
(at least three), each after ``gc.collect()``.  Then the outputs of every
timed pass are checked.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time is rescaled to the reference host's speed: before each set-up
and each operation the process runs units of fixed reference work
(``calib.py``), about a fifth as long as what follows, and a time is
multiplied by (reference unit time) / (median measured unit time) of its
set-up phase or pass.  The raw and rescaled pass times are also written to
standard error.

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, pass_s,
op_geomean_s, peak_rss_mb).  With ``--trace 1`` untraced and traced passes
alternate; the metrics are the per-layer counts of one traced pass, the
median per-pass self times, and the tracing overhead.  The spans are written
to ``perfbench/out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "CHEBYDEV_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
MIN_PASSES = 3
# reference work run before each operation, as a share of its time
CALIB_SHARE = 0.2
SETUP_UNITS = 5
WORKLOADS = ("oracle", "lp", "td_bound", "certify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import ``chebydev`` afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "chebydev" or n.startswith("chebydev.")]:
        del sys.modules[name]
    import chebydev
    import chebydev.cli  # noqa: F401  (the command line is part of the program)
    if Path(chebydev.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"chebydev was imported from {chebydev.__file__}, not {SRC}")


def set_up(name, scratch, calib):
    """Median set-up time, rescaled to the reference speed."""
    import workloads
    times = []
    calib.reset()
    for _ in range(SETUP_REPEATS):
        calib.run(SETUP_UNITS)
        start = time.perf_counter()
        import_program()
        wl = workloads.build(name, scratch)
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times) * calib.scale()


def run_pass(wl, order, units, calib, record, tracer=None):
    """Solve the whole problem list once, each operation after its share
    of reference units.  Returns {op: time rescaled to the reference speed}
    and the scale factor of the pass."""
    ops = dict(wl.ops)
    gc.collect()
    calib.reset()
    raw = {}
    for op in order:
        calib.run(units[op])
        if tracer is not None:
            tracer.problem = op
        t0 = time.perf_counter()
        try:
            out = ops[op]()
        except Exception as exc:   # a failed operation is counted, not fatal
            out = exc
        raw[op] = time.perf_counter() - t0
        record(op, out)
    scale = calib.scale()
    return {op: t * scale for op, t in raw.items()}, scale


def warm_up(wl, order, calib):
    """One untimed pass; returns how many reference units to run before
    each operation so that they take about CALIB_SHARE of its time."""
    calib.reset()
    calib.run(20)
    unit_s = statistics.median(calib.unit_s)
    times, _ = run_pass(wl, order, dict.fromkeys(order, 1), calib, lambda *a: None)
    return {op: max(1, round(CALIB_SHARE * t / unit_s)) for op, t in times.items()}


class Tally:
    """Per-op times and outputs of the timed passes."""

    def __init__(self, wl):
        self.wl = wl
        self.times = {op: [] for op, _ in wl.ops}
        self.outputs = {op: [] for op, _ in wl.ops}
        self.attempted = 0
        self.failed = 0

    def __call__(self, op, out):
        self.attempted += 1
        if self.wl.failed(op, out):
            self.failed += 1
            if isinstance(out, BaseException):
                print(f"{op}: failed: {type(out).__name__}: {out}", file=sys.stderr)
        else:
            self.outputs[op].append(out)

    def add_times(self, times):
        for op, t in times.items():
            self.times[op].append(t)


def measure(wl, rng, seconds, traced, calib):
    """Warm-up pass, then timed passes for ``seconds``.  Returns the tally,
    the rescaled pass times and, when traced, (per-pass metrics, untraced
    pass times, traced pass times, tracer)."""
    names = [op for op, _ in wl.ops]
    units = warm_up(wl, rng.sample(names, len(names)), calib)
    tally = Tally(wl)
    pass_times, untraced, traced_times, per_pass = [], [], [], []
    tracer = None
    if traced:
        from layertrace import METRICS, Tracer
        tracer = Tracer()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < (2 * MIN_PASSES if traced else MIN_PASSES):
        order = rng.sample(names, len(names))
        if traced and i % 2 == 1:
            tracer.reset_pass()
            tracer.install()
            try:
                times, scale = run_pass(wl, order, units, calib, tally, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(sum(times.values()))
            layer = tracer.metrics()
            per_pass.append({name: layer[name] * scale if unit == "s" else layer[name]
                             for name, unit, _ in METRICS})
        else:
            times, scale = run_pass(wl, order, units, calib, tally)
            tally.add_times(times)
            (untraced if traced else pass_times).append(sum(times.values()))
        print(f"pass {i}: {sum(times.values()) / scale:.4f} s measured, "
              f"{sum(times.values()):.4f} s rescaled", file=sys.stderr)
        i += 1
    return tally, pass_times, (per_pass, untraced, traced_times, tracer)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chebydev" / "__init__.py").is_file():
        print(f"run.py: no chebydev sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401  (a dependency, loaded before set-up is timed)
    from calib import Calibrator

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        calib = Calibrator()
        wl, setup_s = set_up(args.workload, scratch, calib)
        rng = random.Random(args.seed)
        tally, pass_times, (per_pass, untraced, traced_times, tracer) = measure(
            wl, rng, args.seconds, bool(args.trace), calib)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = wl.check(tally.outputs, random.Random(f"check-{args.seed}"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        from layertrace import METRICS
        first = per_pass[0]
        if any(p[name] != first[name] for p in per_pass
               for name, unit, _ in METRICS if unit != "s"):
            errors.append("per-layer counts differ between traced passes")
        metrics = {}
        for name, unit, _ in METRICS:
            value = (statistics.median(p[name] for p in per_pass) if unit == "s"
                     else first[name])
            metrics[name] = {"value": value, "unit": unit}
        t_on, t_off = statistics.median(traced_times), statistics.median(untraced)
        metrics["trace.untraced_pass_s"] = {"value": t_off, "unit": "s"}
        metrics["trace.traced_pass_s"] = {"value": t_on, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100 * (t_on / t_off - 1), "unit": "%"}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        op_medians = [statistics.median(ts) for ts in tally.times.values()]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "op_geomean_s": {"value": math.exp(statistics.fmean(math.log(t) for t in op_medians)),
                             "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
