#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload protocol9 --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run sets up cold `setup_repeats` times (a fresh import of
the package each time), spread evenly before, between and after the first
`min_passes` passes.  It repeats the timed pass `min_passes` times and
then for as long as another pass is expected to fit in --seconds.
`wall_s` is the sum over the pass's operations of each operation's
median time across the passes, and `setup_s` the median set-up.  With
--trace 1 it sets up once with every public function wrapped by the span
tracer, times one traced pass, and reports the per-layer metrics; the
spans go to perfbench/out/spans-<workload>.npz.  The correctness gate
checks every operation of the first pass; each later pass must reproduce
the first one's counts and ratios exactly.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import machine

machine.pin_blas_threads()

import gate  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("perms", "sequences", "tsp", "feasible", "qaoa", "optimize", "experiment")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "evaluations": "count",
    "final_ratio_mean": "ratio",
    "pass_rate": "ratio",
}


class RunTimeout(BaseException):
    """The run outlived --timeout; a BaseException so that no handler in
    the package swallows it."""


def _is_package_module(name):
    return name == "permcirc" or name.startswith("permcirc.")


def forget_package():
    """Drop every permcirc module and collect what only they held, so the
    next import starts with no cached state."""
    for name in [m for m in sys.modules if _is_package_module(m)]:
        del sys.modules[name]
    gc.collect()


class Package:
    """A fresh import of permcirc; modules are attributes (pc.feasible,
    pc.tsp, ...)."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"permcirc.{name}"))

    @staticmethod
    def all_modules():
        return [m for name, m in sys.modules.items() if _is_package_module(name)]


def cold_setup(workload, seed, tracer):
    """Import the package afresh and set the workload up; returns the
    package, the case and the seconds taken (not counting the collection
    of the previous import)."""
    forget_package()
    start = time.perf_counter()
    with tracer.op("setup"):
        pc = Package()
        tracer.install(pc)
        case = workload.setup(pc, seed)
    return pc, case, time.perf_counter() - start


def run_pass(pc, workload, case, judge, tracer, verify=True):
    """One timed pass; returns (seconds of each operation, per-operation
    stats).  Only the operations are timed, not the gate's checks between
    them.  Without `verify` the gate is skipped; the caller compares the
    stats instead."""
    times = []
    stats = []
    for op in workload.ops(pc, case):
        result = None
        with tracer.op(op.name):
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                traceback.print_exc()
            times.append(time.perf_counter() - start)
        if verify:
            with tracer.paused():
                judge.judge(op.name, op.verify, result)
        stats.append(None if result is None else op.stats(result))
        del result
    return times, stats


def setup_schedule(workload):
    """How many cold set-ups go before each of the first `min_passes`
    passes, and after the last pass.  Spreading them meets the machine at
    several moments of the run; the first group is never empty."""
    groups = workload.min_passes + 1
    q, r = divmod(workload.setup_repeats, groups)
    return [q + (i < r) for i in range(groups)]


def timed_run(workload, seed, seconds, judge):
    null = NullTracer()
    schedule = setup_schedule(workload)
    setups, passes = [], []
    pc = case = first = began = None
    while True:
        for _ in range(schedule[len(passes)] if len(passes) < workload.min_passes else 0):
            pc = case = None  # the previous import goes before the next one
            pc, case, took = cold_setup(workload, seed, null)
            setups.append(took)
        if began is None:
            began = time.perf_counter()
        took, stats = run_pass(pc, workload, case, judge, null, verify=first is None)
        passes.append(took)  # one list of operation times per pass
        if first is None:
            first = stats
        else:
            judge.judge("repeat", lambda s: gate.check(s == first, "pass differs from the first"), stats)
        expected_end = time.perf_counter() - began + statistics.median(map(sum, passes))
        if len(passes) >= workload.min_passes and expected_end > seconds:
            break
    pc = case = None
    for _ in range(schedule[-1]):
        setups.append(cold_setup(workload, seed, null)[2])
    done = [s for s in first if s is not None]
    ratios = [r for _, r in done if r is not None]
    values = {
        # a slow stretch of the host hits a few operations of one pass,
        # so each operation's median over the passes leaves it out
        "wall_s": sum(map(statistics.median, zip(*passes))),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "evaluations": sum(e for e, _ in done),
        "final_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "pass_rate": 1.0 - judge.error_rate,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, {"passes": len(passes), "setups": len(setups),
                     "pass_s": [round(sum(p), 3) for p in passes]}


def traced_run(workload, seed, judge, spans_path):
    tracer = Tracer()
    pc, case, _ = cold_setup(workload, seed, tracer)
    run_pass(pc, workload, case, judge, tracer)
    tracer.write(spans_path)
    span_cost = tracer.span_cost()
    metrics = tracer.layer_metrics(span_cost * len(tracer))
    return metrics, {"spans": len(tracer), "span_cost_us": round(span_cost * 1e6, 3),
                     "file": str(spans_path),
                     "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _timeout(signum, frame):
    raise RunTimeout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="seed of circuit10's angles")
    ap.add_argument("--seconds", type=float, default=30.0, help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--timeout", type=float, default=170.0, help="a longer run counts as failed")
    ap.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (SRC / "permcirc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    spans_path = ROOT / "perfbench" / "out" / f"spans-{args.workload}.npz"
    judge = gate.Gate()
    metrics, info = {}, {}
    signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, args.timeout)
    try:
        if args.trace:
            metrics, info = traced_run(workload, args.seed, judge, spans_path)
        else:
            metrics, info = timed_run(workload, args.seed, args.seconds, judge)
    except RunTimeout:
        judge.attempted += 1
        judge.fail("run", f"timed out after {args.timeout:g} s")
    except Exception:
        judge.attempted += 1
        judge.fail("run", "raised\n" + traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print("# machine " + json.dumps(machine.record()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':40s} {judge.failed:>9d} / {judge.attempted} operations")
    for failure in judge.failures:
        print("FAILED " + failure, file=sys.stderr)
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": max(judge.attempted, 1),
        "failed": judge.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
