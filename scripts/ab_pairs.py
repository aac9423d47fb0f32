#!/usr/bin/env python3
"""Compare one benchmark workload in two source trees, run in alternating pairs.

    python3 scripts/ab_pairs.py --base ../parent --change . --workload circuit10 --pairs 10

Each pair runs `perfbench/run.py --workload W --trace 0` once in each tree,
each run a cold process started from that tree's root; the order within a
pair alternates (base first in even pairs, change first in odd ones), so
that a drift of the host's speed hits both sides alike.  Every run's last
line of output is kept in --log, one JSON object a line, when given.  The
summary lists, for every end-to-end metric of `BENCHMARK.json`, the
base's median and interquartile range, the change's median, their ratio,
the pairs in which the change was better, equal and worse, by the
metric's direction, and a verdict against the metric's bound (`verdict`);
and the runs that failed an operation or exited non-zero.  The script
exits with status 1 when any run failed, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a run still going after this long is killed and counts as failed


def parse(stdout: str) -> dict:
    """The result object that `perfbench/run.py` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values) -> tuple[float, float]:
    """The first and third quartiles (inclusive method); a lone value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(base: list, change: list, sign: int, bound: float) -> str:
    """"worse" when the change's median is worse than the base's by more
    than bound times the base median; else "unresolved" when the base's
    interquartile range is wider than that, unless every change run beats
    every base run; else "ok".  `sign` is 1 when lower is better, -1 when
    higher is."""
    base_median = statistics.median(base)
    allowed = bound * abs(base_median)
    if sign * (statistics.median(change) - base_median) > allowed:
        return "worse"
    q1, q3 = quartiles(base)
    beats_all = max(change) < min(base) if sign == 1 else min(change) > max(base)
    return "unresolved" if q3 - q1 > allowed and not beats_all else "ok"


def summarize(pairs, metrics) -> list[dict]:
    """One row per metric of `metrics` (the `end_to_end` entries of
    `BENCHMARK.json`: name, better "lower" or "higher", bound) from
    `pairs`, a list of (base, change) result objects as `parse` returns
    them: the medians, the base's interquartile range, change / base, the
    pairs won, tied and lost by the change, and the `verdict`.  Runs
    without a metric are left out of its row."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        got = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in pairs
               if name in b.get("metrics", {}) and name in c.get("metrics", {})]
        if not got:
            continue
        base, change = [b for b, _ in got], [c for _, c in got]
        sign = 1 if metric["better"] == "lower" else -1
        won = sum(sign * (c - b) < 0 for b, c in got)
        tied = sum(c == b for b, c in got)
        q1, q3 = quartiles(base)
        base_median, change_median = statistics.median(base), statistics.median(change)
        rows.append({"metric": name, "base": base_median, "base_iqr": q3 - q1,
                     "change": change_median,
                     "ratio": change_median / base_median if base_median else float("nan"),
                     "won": won, "tied": tied, "lost": len(got) - won - tied, "pairs": len(got),
                     "verdict": verdict(base, change, sign, metric["bound"])})
    return rows


def failures(pairs) -> list[str]:
    """The runs that failed an operation or exited non-zero (`run_once`
    marks them not correct), each as "base pair i" or "change pair i"."""
    bad = []
    for i, pair in enumerate(pairs):
        for side, result in zip(("base", "change"), pair):
            if not result.get("correct") or result.get("failed"):
                bad.append(f"{side} pair {i}")
    return bad


def render(rows, bad) -> str:
    lines = [f"{'metric':18s} {'base':>12s} {'base IQR':>10s} {'change':>12s} {'ratio':>7s}  "
             f"{'won/tied/lost':15s} verdict"]
    for r in rows:
        counts = f"{r['won']}/{r['tied']}/{r['lost']} of {r['pairs']}"
        lines.append(f"{r['metric']:18s} {r['base']:12.6g} {r['base_iqr']:10.3g} "
                     f"{r['change']:12.6g} {r['ratio']:7.3f}  {counts:15s} {r['verdict']}")
    lines.append("failed runs: " + (", ".join(bad) if bad else "none"))
    return "\n".join(lines)


def run_once(tree: Path, workload: str) -> dict:
    """One untraced run of `workload` from the root of `tree`, as `parse`
    returns it, or a failed result when the run is killed, prints none or
    exits non-zero (even after printing its result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
        result = parse(proc.stdout)
        if proc.returncode:
            result.update(correct=False, error=f"exit status {proc.returncode}: {proc.stderr[-500:]}")
        return result
    except subprocess.TimeoutExpired:
        return {"correct": False, "failed": 1, "error": f"killed after {TIMEOUT_S} s"}
    except ValueError as e:
        return {"correct": False, "failed": 1, "error": f"{e}: {proc.stderr[-500:]}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, required=True, help="root of the tree to compare against")
    ap.add_argument("--change", type=Path, default=ROOT, help="root of the changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--log", type=Path, help="append every run's result here, one JSON a line")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        result = {}
        for side in order:
            tree = args.base if side == "base" else args.change
            result[side] = run_once(tree.resolve(), args.workload)
            if args.log:
                with args.log.open("a") as log:
                    log.write(json.dumps({"pair": i, "side": side, "workload": args.workload,
                                          **result[side]}) + "\n")
        pairs.append((result["base"], result["change"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.pairs} pairs, base {args.base}, change {args.change}")
    bad = failures(pairs)
    print(render(summarize(pairs, metrics), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
