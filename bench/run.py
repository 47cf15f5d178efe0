"""Benchmark of the lossylqr toolkit.

    python3 bench/run.py --workload design --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy, and BLAS is pinned to one thread.  One process runs
one workload:

* set-up, repeated SETUP_REPEATS times: a fresh import of lossylqr and its
  CLI module, input generation from --seed, and one warm-up pass;
* the checks, on the warm-up pass's outputs, after leaving out the
  operations that hit the known, seed-dependent fault (workloads.known_fault);
* timed passes until --seconds have elapsed; every pass must reproduce the
  warm-up's outputs exactly.

With --trace 0 the last stdout line reports the end-to-end metrics: the
median over timed passes of work units per reference second, peak resident
memory and the median set-up time in reference seconds (see Stopwatch).
With --trace 1 the library's public functions are wrapped (see spans.py)
and the line reports the per-layer metrics of one pass instead: counts,
which must repeat in every traced pass, and the median self time per pass
in plain seconds.  The spans of the last traced pass are written to
bench/out/.  --smoke shrinks every workload so that all checks run in
seconds.
"""

import os

# Pin BLAS before numpy loads: the workloads are small dense linear algebra
# and the benchmark host has two cores shared with other processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
# Time the calibration kernel takes on the reference host.
CAL_REF_S = 2.5e-3
_CAL_MATRIX = np.random.default_rng(0).normal(size=(9, 9)) * 0.3


def calibration_kernel() -> float:
    """Fixed small-matrix loop that uses no lossylqr code; returns its duration."""
    t0 = time.perf_counter()
    v = np.ones(9)
    for _ in range(500):
        v = _CAL_MATRIX @ v
        v /= np.linalg.norm(v)
    return time.perf_counter() - t0


class Stopwatch:
    """Raw and reference-host time of the segments between calibration probes.

    The benchmark host's speed swings by up to 1.8x within seconds (its
    physical cores are shared), and the share of slow time changes from
    minute to minute, so raw medians of two sets of runs can differ by that
    much.  Each operation of a pass is therefore bracketed by a probe that
    runs the calibration kernel, and the operation's time is scaled by
    CAL_REF_S over the mean duration of its two probes.  The probes' own
    time is excluded from both totals.
    """

    def __init__(self):
        self.raw = 0.0
        self.ref = 0.0
        self._last = None  # (end of the previous probe, its kernel duration)

    def probe(self):
        start = time.perf_counter()
        cal = calibration_kernel()
        if self._last is not None:
            segment = start - self._last[0]
            self.raw += segment
            self.ref += segment * CAL_REF_S / (0.5 * (self._last[1] + cal))
        self._last = (time.perf_counter(), cal)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("design", "regions", "montecarlo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed (or traced) passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and one set-up; for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def fresh_import():
    """Import lossylqr and its CLI module from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "lossylqr" or n.startswith("lossylqr.")]:
        del sys.modules[name]
    package = importlib.import_module("lossylqr")
    importlib.import_module("lossylqr.cli")
    return package


def timed_passes(workload, reference, seconds):
    """Calibrated passes until `seconds` elapse; return (a Stopwatch per pass, last results, problems)."""
    laps, problems = [], []
    deadline = time.perf_counter() + seconds
    while not laps or time.perf_counter() < deadline:
        watch = Stopwatch()
        results = workload.run_pass(watch.probe)
        laps.append(watch)
        if workload.fingerprint(results) != reference:
            problems.append(f"pass {len(laps)} does not reproduce the warm-up outputs")
    return laps, results, problems


def report(correct, ops, passes, failed, metrics):
    return {
        "correct": correct,
        "attempted": ops * passes,
        "failed": failed * passes,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_untraced(workloads, args):
    setups = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        watch = Stopwatch()
        watch.probe()
        L = fresh_import()
        workload = workloads[args.workload](L, args.seed, args.smoke)
        warm = workload.run_pass(watch.probe)
        setups.append(watch)
    warm = workload.leave_out_known_faults(warm)
    problems = workload.check(warm)
    laps, last, more = timed_passes(workload, workload.fingerprint(warm), args.seconds)
    problems += more
    units = workload.units(warm)
    ref = [w.ref for w in laps]
    log(workload, warm, problems, f"{len(laps)} passes of {units} work units ({workload.unit}); pass time median "
        f"{statistics.median(w.raw for w in laps):.4f} s raw, {statistics.median(ref):.4f} s reference, "
        f"quartiles {' / '.join(f'{x:.4f}' for x in quartiles(ref))}; set-up "
        f"{', '.join(f'{w.raw:.3f}' for w in setups)} s raw, {', '.join(f'{w.ref:.3f}' for w in setups)} s reference")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": (statistics.median(units / t for t in ref), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(w.ref for w in setups), "s"),
    }
    return report(not problems, len(workload.ops), len(laps), len(workload.failures(last)), metrics)


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def run_traced(workloads, args):
    from spans import Tracer, metric_names

    L = fresh_import()
    tracer = Tracer()
    tracer.install()
    try:
        workload = workloads[args.workload](L, args.seed, args.smoke)
        warm = workload.leave_out_known_faults(workload.run_pass())
        problems = workload.check(warm)
        reference = workload.fingerprint(warm)
        per_pass, times = [], []
        deadline = time.perf_counter() + args.seconds
        while not times or time.perf_counter() < deadline:
            tracer.reset()
            t0 = time.perf_counter()
            last = workload.run_pass()
            times.append(time.perf_counter() - t0)
            per_pass.append(tracer.summary())
            if workload.fingerprint(last) != reference:
                problems.append(f"traced pass {len(times)} does not reproduce the warm-up outputs")
        tracer.write(
            OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "pass_s": times[-1]},
        )
    finally:
        tracer.uninstall()
    counts = per_pass[0][0]
    if any(c != counts for c, _ in per_pass):
        problems.append("per-layer counts differ between traced passes")
    log(workload, warm, problems, f"{len(times)} traced passes; pass time median {statistics.median(times):.4f} s raw")
    metrics = {}
    for name, unit in metric_names():
        if name in counts:
            metrics[name] = (counts[name], unit)
        else:
            metrics[name] = (statistics.median(t[name] for _, t in per_pass), unit)
    return report(not problems, len(workload.ops), len(times), len(workload.failures(last)), metrics)


def log(workload, results, problems, line):
    print(f"[{workload.name}] {line}", file=sys.stderr)
    notes = workload.notes(results)
    if notes:
        print(f"[{workload.name}] {notes}", file=sys.stderr)
    for failure in workload.failures(results):
        print(f"[{workload.name}] failed: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"[{workload.name}] CHECK FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lossylqr" / "__init__.py").is_file():
        print(f"bench: no lossylqr sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    result = (run_traced if args.trace else run_untraced)(WORKLOADS, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
