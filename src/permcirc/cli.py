"""Command-line harness: instance management, exact solving, experiment
runs, exact-reachability demonstrations, and the verification suite.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 size cap.
"""

import argparse
import sys

import numpy as np

from .checks import run_checks
from .encoding import COMPACT, ONEHOT, EncodingSpec
from .experiment import (
    RATIO_MODES,
    RunSpec,
    reach_report,
    run_experiment,
    top_k_rows,
    trace_csv,
)
from .limits import TooLarge
from .optimize import ObjectiveError, OptConfig
from .perms import format_perm, parse_perm
from .qaoa import QaoaConfig, default_layers
from .sequences import BINARY_INSERTION, BUBBLE
from .tsp import load_instance, optimum, random_instance, save_instance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_TOO_LARGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse default exit code for usage errors is 2; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_instance_flags(p):
    p.add_argument("--instance", metavar="PATH", help="instance file")
    p.add_argument("--n", type=int, help="city count for a random instance")
    p.add_argument("--seed", type=int, default=0, help="random-instance seed")
    p.add_argument("--lo", type=float, default=1.0, help="minimum edge weight")
    p.add_argument("--hi", type=float, default=10.0, help="maximum edge weight")


def _add_shared_flags(p):
    _add_instance_flags(p)
    p.add_argument("--encoding", choices=[ONEHOT, COMPACT], default=COMPACT)
    p.add_argument("--reduced", action=argparse.BooleanOptionalAction, default=True,
                   help="fix the last city as tour start (effective degree n-1)")
    p.add_argument("--method", choices=[BUBBLE, BINARY_INSERTION, "qaoa"],
                   default=BUBBLE)


def _resolve_instance(args):
    if args.instance is not None:
        return load_instance(args.instance)
    if args.n is None:
        raise ValueError("provide --instance PATH or --n N (with --seed S)")
    return random_instance(args.n, args.seed, args.lo, args.hi)


def build_parser() -> _Parser:
    parser = _Parser(prog="permcirc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="write a random instance file")
    _add_instance_flags(p)
    p.add_argument("--out", required=True, metavar="PATH")

    p = sub.add_parser("solve-exact", help="exact optimal tour")
    _add_instance_flags(p)
    p.add_argument("--reduced", action=argparse.BooleanOptionalAction, default=True)

    p = sub.add_parser("run", help="optimise a parametrised circuit on an instance")
    _add_shared_flags(p)
    p.add_argument("--qaoa-layers", type=int, metavar="P",
                   help="QAOA depth (default: matched circuit length)")
    p.add_argument("--qaoa-init", choices=["basis", "uniform"],
                   help="QAOA initial state (default: basis)")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--grad-threshold", type=float, default=1e-4)
    p.add_argument("--grad-window", type=int, default=10)
    p.add_argument("--init-step", type=float, default=0.1 * np.pi)
    p.add_argument("--ratio-mode", choices=RATIO_MODES, default=RATIO_MODES[0])
    p.add_argument("--random-init", type=int, metavar="SEED",
                   help="draw initial parameters uniformly instead of zeros")
    p.add_argument("--out", default="trace.csv", metavar="PATH")
    p.add_argument("--dump-params", action="store_true",
                   help="append per-iteration parameters to the trace CSV")
    p.add_argument("--top-k", type=int, default=0, metavar="K",
                   help="print the K most probable tours of the final state")

    p = sub.add_parser("reach", help="drive the start tour exactly onto a target")
    _add_shared_flags(p)
    p.add_argument("--target", metavar="PERM",
                   help='1-based one-line target, e.g. "2,3,1" (default: optimum)')

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    return parser


def cmd_gen_instance(args) -> int:
    inst = random_instance(args.n, args.seed, args.lo, args.hi)
    save_instance(inst, args.out)
    print(f"wrote {args.n}x{args.n} instance to {args.out}")
    return EXIT_OK


def cmd_solve_exact(args) -> int:
    inst = _resolve_instance(args)
    tour, cost = optimum(inst, args.reduced)
    print(f"{cost!r} {format_perm(tour)}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.top_k < 0:
        raise ValueError(f"--top-k must be >= 0, got {args.top_k}")
    if args.method != "qaoa":
        for flag, value in (("--qaoa-layers", args.qaoa_layers), ("--qaoa-init", args.qaoa_init)):
            if value is not None:
                raise ValueError(f"{flag} requires --method qaoa")
    inst = _resolve_instance(args)
    qaoa_cfg = None
    if args.method == "qaoa":
        degree = EncodingSpec(inst.n, args.encoding, args.reduced).degree
        layers = default_layers(degree) if args.qaoa_layers is None else args.qaoa_layers
        qaoa_cfg = QaoaConfig(layers, initial=args.qaoa_init or "basis")
    spec = RunSpec(
        inst,
        method=args.method,
        encoding_kind=args.encoding,
        reduced=args.reduced,
        qaoa=qaoa_cfg,
        opt=OptConfig(
            max_iters=args.max_iters,
            init_step=args.init_step,
            grad_threshold=args.grad_threshold,
            grad_window=args.grad_window,
        ),
        ratio_mode=args.ratio_mode,
        random_init_seed=args.random_init,
    )
    # opened first, so that an unwritable path fails before any circuit runs
    with open(args.out, "w") as trace_file:
        trace, summary = run_experiment(spec)
        trace_file.write(trace_csv(trace, dump_params=args.dump_params))
    for key in (
        "method", "encoding", "reduced", "effective_degree", "parameters",
        "iterations", "evaluations", "gradients", "status", "initial_ratio", "final_ratio",
        "optimal_cost",
    ):
        print(f"{key:17s} {summary[key]}")
    print(f"{'optimal_tour':17s} {format_perm(summary['optimal_tour'])}")
    print(f"{'wall_time_s':17s} {summary['wall_time_s']:.2f}")
    print(f"{'trace':17s} {args.out}")
    if args.top_k:
        print("probability,permutation")
        for prob, perm in top_k_rows(summary["final_state"], args.top_k):
            print(f"{prob!r},{format_perm(perm)}")
    return EXIT_OK


def cmd_reach(args) -> int:
    inst = _resolve_instance(args)
    spec = RunSpec(inst, method=args.method, encoding_kind=args.encoding,
                   reduced=args.reduced)
    target = parse_perm(args.target) if args.target else None
    report = reach_report(spec, target)
    print(f"target    {format_perm(report['target'])}")
    print(f"mask      {''.join(str(b) for b in report['mask'])}")
    print("thetas    " + ",".join(f"{t:.6f}" for t in report["thetas"]))
    print(f"fidelity  {report['fidelity']:.9f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(args.level)
    failures = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        print(f"{mark} {r.name:24s} {r.seconds:6.2f}s  {r.detail}")
        failures += not r.ok
    print(f"{len(results) - failures}/{len(results)} checks passed ({args.level})")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-instance": cmd_gen_instance,
        "solve-exact": cmd_solve_exact,
        "run": cmd_run,
        "reach": cmd_reach,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except TooLarge as e:
        print(f"permcirc: size cap: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (ValueError, OSError, ObjectiveError) as e:
        print(f"permcirc: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
