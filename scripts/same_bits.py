#!/usr/bin/env python3
"""Compare the numbers that two source trees compute, artifact by artifact.

    python3 scripts/same_bits.py --base ../parent

compares the tree given as --base with the tree this script is in.  Each
tree computes one fixed list of artifacts (`emit`) in a subprocess of
its own, started from the tree's root, which imports `permcirc` from the
tree's `src` with OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1
and writes every artifact to a scratch directory:
  - the forward amplitudes (`run_steps`) of the seven `checks.gradient_cases`
    kinds at degrees 5-10, 42 circuits (instance seed n; start and angles
    drawn from default_rng(100 + n));
  - their gradients (`expectation_gradient`) at degrees 8 and 9;
  - `Action.table` of the actions `checks.check_action_tables` builds,
    one concatenation a degree;
  - the `run --dump-params` trace CSVs of the four variants on 9 cities
    (seed 7, 10 iterations, from zeros and from `--random-init 3`), on the
    two 7-city instances of the sweep benchmark (seeds 1 and 2, 500
    iterations, `--grad-window 10`), and of bubble, binary insertion and
    QAOA on 10 cities (seed 7, 5 iterations).

It prints one line per artifact: "same" (equal bytes), "same up to the
sign of zero" (equal values, and equal bytes once +0.0 is added to each),
or "differs" with the largest absolute difference and, for a CSV, the
first line that differs.  It exits 1 when an artifact differs or a tree
fails to compute the list, else 0.  The bits depend on the host (numpy's
SIMD dispatch, libm, the BLAS build), so the script compares two trees on
one host and keeps no hashes.
"""

import argparse
import io
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800  # a tree still computing after this long has failed

# (label, `run` flags) of the four variants of the paper's protocol
VARIANTS = [("bubble", ["--method", "bubble"]),
            ("binary-insertion", ["--method", "binary-insertion"]),
            ("qaoa-basis", ["--method", "qaoa"]),
            ("qaoa-uniform", ["--method", "qaoa", "--qaoa-init", "uniform"])]


def emit(out: Path) -> None:
    """Compute every artifact with the `permcirc` on sys.path, writing
    each to `out` as it is done (an array as .npy, a trace as .csv) and
    printing "file<TAB>name" for it."""
    from permcirc import checks, cli
    from permcirc import feasible as fs
    from permcirc import qaoa as qa
    from permcirc.perms import all_perms, is_involution
    from permcirc.tsp import TourCost, random_instance

    count = 0

    def file(suffix: str) -> Path:
        nonlocal count
        count += 1
        return out / f"{count:03d}{suffix}"

    def write(name: str, path: Path) -> None:
        print(f"{path.name}\t{name}", flush=True)

    for n in range(5, 11):
        cost = TourCost(random_instance(n + 1, seed=n), reduced=True)
        rng = np.random.default_rng(100 + n)
        start = tuple(rng.permutation(n).tolist())
        for name, d, initial, steps, vec, _ in checks.gradient_cases(cost, start):
            x = rng.uniform(0, 2 * np.pi, d)
            path = file(".npy")
            np.save(path, fs.run_steps(initial(), steps, x).amps)
            write(f"forward {name} n={n}", path)
            if n in (8, 9):
                path = file(".npy")
                np.save(path, fs.expectation_gradient(initial(), steps, x, vec))
                write(f"gradient {name} n={n}", path)
    for n in range(1, 8):
        if n <= 5:
            elements = [p for p in all_perms(n) if is_involution(p)]
        else:
            elements = sorted({h for build in checks.BUILDS for h in build(n).elements})
        actions = [fs.involution_action(h) for h in elements]
        if n >= 2:
            actions += [qa.mixer_slot_action(t, n) for t in range(n)]
        path = file(".npy")
        np.save(path, np.concatenate([a.table for a in actions]))
        write(f"Action.table of {len(actions)} actions n={n}", path)

    def trace(name: str, flags: list) -> None:
        path = file(".csv")
        with redirect_stdout(io.StringIO()):
            code = cli.main(["run", *flags, "--dump-params", "--out", str(path)])
        if code:
            raise SystemExit(f"run {' '.join(flags)} exited with status {code}")
        write(name, path)

    for init in ([], ["--random-init", "3"]):
        for label, flags in VARIANTS:
            trace(f"trace n=9 seed=7 {label}{' random-init 3' if init else ''}",
                  ["--n", "9", "--seed", "7", "--max-iters", "10", *flags, *init])
    for seed in (1, 2):
        for label, flags in VARIANTS:
            trace(f"trace n=7 seed={seed} {label}",
                  ["--n", "7", "--seed", str(seed), "--max-iters", "500", "--grad-window", "10", *flags])
    for label, flags in VARIANTS[:3]:
        trace(f"trace n=10 seed=7 {label}", ["--n", "10", "--seed", "7", "--max-iters", "5", *flags])


def compare_arrays(base: np.ndarray, change: np.ndarray) -> str:
    """The verdict on two arrays: "same", "same up to the sign of zero"
    (`checks.equal_up_to_zero_sign` of this script's tree) or
    "differs: ..." (dtype, shape or largest absolute difference)."""
    from permcirc.checks import equal_up_to_zero_sign

    if base.dtype != change.dtype:
        return f"differs: dtype {base.dtype} against {change.dtype}"
    if base.shape != change.shape:
        return f"differs: shape {base.shape} against {change.shape}"
    if base.tobytes() == change.tobytes():
        return "same"
    if equal_up_to_zero_sign(base, change):
        return "same up to the sign of zero"
    return f"differs: largest absolute difference {np.max(np.abs(base - change)):.3g}"


def compare_csv(base: str, change: str) -> str:
    """The verdict on two trace CSVs, field by field: "same", "same up to
    the sign of zero" (every field that differs in text reads the same
    float) or "differs: ..." with the largest absolute difference of a
    numeric field (inf for a field or a row only one side has) and the
    first line, counted from 1 at the header, that differs."""
    if base == change:
        return "same"
    rows = [text.splitlines() for text in (base, change)]
    first, worst, signs = None, 0.0, True
    for line in range(max(map(len, rows))):
        a, b = (r[line].split(",") if line < len(r) else [] for r in rows)
        if a == b:
            continue
        first = line + 1 if first is None else first
        if len(a) != len(b):
            signs, worst = False, math.inf
            continue
        for x, y in zip(a, b):
            if x == y:
                continue
            try:
                gap = abs(float(x) - float(y))
            except ValueError:
                gap = math.inf
            signs = signs and gap == 0 and float(x) == float(y)
            worst = max(worst, gap)
    if signs:
        return "same up to the sign of zero"
    return f"differs: largest absolute difference {worst:.3g}, first at line {first}"


def compare(base: Path, change: Path) -> str:
    """The verdict on two artifact files of the same name."""
    if base.suffix == ".csv":
        return compare_csv(base.read_text(), change.read_text())
    return compare_arrays(np.load(base), np.load(change))


def run_tree(tree: Path, out: Path) -> list:
    """The (file, name) pairs of the artifacts `emit` wrote to `out`,
    computed by the `permcirc` of `tree` in a subprocess; RuntimeError
    when it fails."""
    out.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"{tree}: exit status {proc.returncode}: {proc.stderr[-2000:]}")
    return [tuple(line.split("\t", 1)) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, help="root of the tree to compare against")
    ap.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if args.base is None:
        ap.error("--base is required")
    # imported only here, after `--emit`, so that a tree computing its
    # artifacts imports no `permcirc` but its own
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="same_bits.") as work:
        listed = {}
        for side, tree in (("base", args.base), ("change", ROOT)):
            try:
                listed[side] = run_tree(tree.resolve(), Path(work) / side)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                print(f"{side} tree failed: {e}")
                return 1
        changed = dict((name, file) for file, name in listed["change"])
        differs = 0
        for file, name in listed["base"]:
            if name in changed:
                verdict = compare(Path(work) / "base" / file, Path(work) / "change" / changed.pop(name))
            else:
                verdict = "differs: missing from the change"
            differs += verdict.startswith("differs")
            print(f"{name}: {verdict}", flush=True)
        for name in changed:
            differs += 1
            print(f"{name}: differs: missing from the base")
    print(f"{len(listed['base'])} artifacts, {differs} differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
