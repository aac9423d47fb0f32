#!/usr/bin/env python3
"""Run the benchmark's workloads, each in its own cold process, and print
every metric with its unit, the error rate and the machine record.

    python3 perfbench/report.py                       # all workloads, traced and untraced
    python3 perfbench/report.py --seeds 1-10 --workloads sweep7 --no-trace
    python3 perfbench/report.py --out perfbench/BENCH_baseline.json

With several seeds each end-to-end metric is summarised as its median,
quartiles (`statistics.quantiles(n=4)`) and spread, the quartile
distance over the median, next to the bound in BENCHMARK.json.  Runs go
one after another, so no two compete for the CPUs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import machine

machine.pin_blas_threads()  # recorded below, and inherited by every run

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarise(results, bounds):
    """Median, quartiles and spread of each metric over the runs."""
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            q1 = q3 = med
            spread = float("nan")
        rows.append(dict(metric=name, unit=unit, median=med, q1=q1, q3=q3,
                         spread=spread, bound=bounds.get(name), n=len(values)))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0", help="e.g. 1-10 or 3,5")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    ap.add_argument("--out", type=Path, help="also write everything as JSON here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    record = machine.record()
    print("machine " + json.dumps(record))
    out = {"machine": record, "seconds": seconds, "workloads": {}}

    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = summarise(runs, bounds)
        print(f"\n== {workload}  seeds {seeds}  "
              f"error_rate {failed}/{attempted} = {failed / attempted:g}")
        print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  unit")
        for r in rows:
            bound = "" if r["bound"] is None else f"{r['bound']:g}"
            print(f"{r['metric']:34s} {r['median']:12.6g} {r['q1']:12.6g} {r['q3']:12.6g} "
                  f"{r['spread']:8.4f} {bound:>6s}  {r['unit']}")
        entry = {"runs": runs, "seeds": seeds, "summary": rows, "error_rate": failed / attempted}
        if not args.no_trace:
            traced = run_once(workload, seeds[0], seconds, 1)
            print(f"-- traced run, seed {seeds[0]}: "
                  f"{traced['failed']}/{traced['attempted']} failed")
            for name, m in traced["metrics"].items():
                print(f"{name:40s} {m['value']:16.6g} {m['unit']}")
            entry["traced"] = traced
        out["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
