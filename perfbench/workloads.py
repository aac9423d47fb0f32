"""The benchmark's workloads.

A workload builds its inputs in `setup`, which ends with
one objective evaluation per method so that whatever lazy state the
package keeps (index tables, say) is built there and counted in
`setup_s`.  `ops` then lists the operations of one timed pass; each is
checked by the correctness gate after it returns, outside the timing.
See README.md for why each workload is here.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import gate

BUBBLE, BINARY_INSERTION = "bubble", "binary-insertion"


@dataclass(frozen=True)
class Op:
    name: str  # variant label; also the traced operation's span name
    run: Callable[[], object]  # the timed call
    verify: Callable[[object], None]  # raises gate.CheckFailed
    stats: Callable[[object], tuple]  # result -> (evaluations, ratio or None)


def variant_specs(pc, inst, opt):
    """The four variants of the paper's protocol on one instance."""
    layers = pc.qaoa.default_layers(inst.n - 1)
    RunSpec = pc.experiment.RunSpec
    return {
        BUBBLE: RunSpec(inst, method=BUBBLE, opt=opt),
        BINARY_INSERTION: RunSpec(inst, method=BINARY_INSERTION, opt=opt),
        "qaoa-basis": RunSpec(inst, method="qaoa", opt=opt),
        "qaoa-uniform": RunSpec(inst, method="qaoa", opt=opt,
                                qaoa=pc.qaoa.QaoaConfig(layers, initial="uniform")),
    }


def reach_op(pc, inst, verify=gate.check_fidelity):
    spec = pc.experiment.RunSpec(inst, method=BINARY_INSERTION)
    return Op("reach", lambda: pc.experiment.reach_report(spec), verify, lambda r: (0, None))


@dataclass(frozen=True)
class Protocol:
    """Every variant optimised on each of a fixed set of n-city instances,
    then an exact-reachability report per instance.

    The instances do not follow the benchmark seed: how soon the
    gradient-window rule stops differs from instance to instance, so
    seeded instances would change the work of a run from seed to seed
    (protocol9 took 10.4 s to 18.8 s over seeds 9-12; sweep7's wall time
    spread 0.23 over seeds 1-5), hiding any change in the code."""

    n: int
    instance_seeds: tuple
    max_iters: int
    grad_window: int
    enumerate_tours: bool
    setup_repeats: int
    min_passes: int

    def setup(self, pc, seed):
        opt = pc.optimize.OptConfig(max_iters=self.max_iters, grad_window=self.grad_window)
        case = [
            (inst, variant_specs(pc, inst, opt))
            for inst in (pc.tsp.random_instance(self.n, s) for s in self.instance_seeds)
        ]
        for spec in case[0][1].values():
            state = gate.prepare(pc, spec)
            pc.feasible.expectation(state, pc.tsp.TourCost(spec.instance, spec.reduced).vector())
        return case

    def ops(self, pc, case):
        for inst, variants in case:
            for label, spec in variants.items():
                yield Op(
                    label,
                    lambda spec=spec: pc.experiment.run_experiment(spec),
                    lambda out, spec=spec: gate.check_variant(pc, spec, *out, self.enumerate_tours),
                    lambda out: (out[1]["evaluations"], out[1]["final_ratio"]),
                )
            yield reach_op(pc, inst)


@dataclass(frozen=True)
class Circuits:
    """Circuits of each method at angles drawn from the benchmark seed,
    evaluated without an optimiser on one fixed n-city instance, then an
    exact-reachability report.  The work does not depend on the seed; the
    instance is fixed because it, not the angles, sets the ratio (over
    seeds 1-5 the mean ratio spread 0.16 with seeded instances, 0.03
    with seeded angles alone)."""

    n: int
    instance_seed: int
    setup_repeats: int
    min_passes: int

    def setup(self, pc, seed):
        inst = pc.tsp.random_instance(self.n, self.instance_seed)
        degree = inst.n - 1
        cost = pc.tsp.TourCost(inst, True)
        vec = cost.vector()
        rng = np.random.default_rng(seed)
        seqs = {m: pc.experiment.build_sequence(m, degree) for m in (BUBBLE, BINARY_INSERTION)}
        thetas = {m: rng.uniform(0, np.pi, len(seq)) for m, seq in seqs.items()}
        cfg = pc.qaoa.QaoaConfig(pc.qaoa.default_layers(degree))
        betas, gammas = rng.uniform(0, np.pi, (2, cfg.layers))
        case = dict(inst=inst, cost=cost, vec=vec, c_min=float(vec.min()), c_max=float(vec.max()),
                    start=pc.perms.identity(degree), seqs=seqs, thetas=thetas, cfg=cfg,
                    betas=betas, gammas=gammas, seed=seed)
        for op in self.ops(pc, case):
            if op.name != "reach":
                op.run()
        return case

    def ops(self, pc, case):
        c = case

        def evaluate(prepare):
            def run():
                state = prepare()
                return state, pc.feasible.expectation(state, c["vec"])
            return run

        def verify(gate_method=None):
            def check(out):
                gate.check_circuit(*out, c["c_min"], c["c_max"])
                if gate_method:
                    gate.check_gate(pc, c["seqs"][gate_method], c["thetas"][gate_method],
                                    c["start"], out[0], c["seed"])
            return check

        def stats(out):
            return 1, c["c_min"] / out[1]

        for m in (BUBBLE, BINARY_INSERTION):
            prepare = lambda m=m: pc.feasible.run_exhaustive_circuit(c["seqs"][m], c["thetas"][m], c["start"])  # noqa: E731
            yield Op(m, evaluate(prepare), verify(m if m == BINARY_INSERTION else None), stats)
        yield Op("qaoa-basis",
                 evaluate(lambda: pc.qaoa.run_qaoa(c["cost"], c["cfg"], c["betas"], c["gammas"], c["start"])),
                 verify(), stats)

        def verify_reach(report):
            gate.check_fidelity(report)
            target = gate.check_optimum(pc, c["inst"], c["vec"])
            gate.check(report["target"] == target, "reach target is not the optimum")

        yield reach_op(pc, c["inst"], verify_reach)


PAPER_SEED = 7  # the 9-city instance of the paper's experiment and the acceptance test

# The machine's speed drifts by up to 2x over a few seconds (other guests
# share its cores), so every workload makes at least three passes, and
# `wall_s` takes each operation's median over them.  That is why protocol9
# runs 10 iterations (a 7-s pass) rather than 30 (a 19-s pass), and
# sweep7 two instances rather than four: both are the ones where binary-
# insertion stops by the gradient window.  protocol9's and sweep7's
# set-ups take 0.03-0.25 s, so they repeat 24 times, spread over the
# run, and report the median.  circuit10 sets up once per run: a cold
# set-up takes about 28 s, and repeating it in each of the 22 runs a
# full check makes per workload would overrun the benchmark's time budget.
WORKLOADS = {
    "protocol9": Protocol(n=9, instance_seeds=(PAPER_SEED,), max_iters=10, grad_window=5,
                          enumerate_tours=False, setup_repeats=24, min_passes=3),
    "sweep7": Protocol(n=7, instance_seeds=(1, 2), max_iters=500, grad_window=10,
                       enumerate_tours=True, setup_repeats=24, min_passes=3),
    "circuit10": Circuits(n=11, instance_seed=0, setup_repeats=1, min_passes=3),
}

# Same code paths at toy sizes, for the benchmark's own tests.
SMOKE = {
    "protocol9": Protocol(n=5, instance_seeds=(PAPER_SEED,), max_iters=3, grad_window=2,
                          enumerate_tours=False, setup_repeats=2, min_passes=1),
    "sweep7": Protocol(n=5, instance_seeds=(0, 1), max_iters=5, grad_window=2,
                       enumerate_tours=True, setup_repeats=2, min_passes=2),
    "circuit10": Circuits(n=6, instance_seed=0, setup_repeats=2, min_passes=2),
}
