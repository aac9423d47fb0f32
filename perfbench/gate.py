"""Correctness gate: every benchmark operation is checked against an
invariant or an independent recomputation, outside the timed region.

An operation fails when it raises, times out, or breaks any check; the
gate counts attempted and failed operations for `error_rate`.  Checks
reach the package only through its public functions.
"""

import traceback

import numpy as np

STATUSES = ("gradient-window", "max-iters")
RATIO_SLACK = 1e-12  # same slack as the acceptance test
OBJECTIVE_RTOL = 1e-12
NORM_TOL = 1e-9
FIDELITY_TOL = 1e-10
ENUMERATION_RTOL = 1e-10  # summation order differs from the cost vector
GATE_SAMPLES = 256
GATE_ATOL = 1e-12
COST_RTOL = 1e-12


class CheckFailed(Exception):
    """A result broke a correctness check."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, op, message):
        self.failed += 1
        self.failures.append(f"{op}: {message}")

    def judge(self, op, verify, result):
        """Count one operation; `result` is None when the operation raised."""
        self.attempted += 1
        if result is None:
            self.fail(op, "operation raised")
            return
        try:
            verify(result)
        except CheckFailed as e:
            self.fail(op, str(e))
        except Exception:
            self.fail(op, "check raised\n" + traceback.format_exc())

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


def check_state(state):
    norm = float(np.linalg.norm(state.amps))
    check(abs(norm - 1.0) <= NORM_TOL, f"state norm {norm!r} is not 1")


def check_fidelity(report):
    f = report["fidelity"]
    check(abs(f - 1.0) <= FIDELITY_TOL, f"reach fidelity {f!r} is not 1")


def prepare(pc, spec, x=None):
    """The state of `spec` at angles x (all zero when omitted), prepared
    through the public circuit functions as `run_experiment` does."""
    degree = spec.degree
    start = pc.perms.identity(degree)
    if spec.method == "qaoa":
        cost = pc.tsp.TourCost(spec.instance, spec.reduced)
        cfg = spec.qaoa or pc.qaoa.QaoaConfig(pc.qaoa.default_layers(degree))
        p = cfg.layers
        x = np.zeros(2 * p) if x is None else x
        return pc.qaoa.run_qaoa(cost, cfg, x[:p], x[p:], start)
    seq = pc.experiment.build_sequence(spec.method, degree)
    x = np.zeros(len(seq)) if x is None else x
    return pc.feasible.run_exhaustive_circuit(seq, x, start)


def enumerated_expectation(pc, state, instance, reduced):
    """Sum of |amp|^2 times cost over all tours, with each cost from
    `tour_cost` rather than the cost vector."""
    probs = np.abs(state.amps) ** 2
    return float(sum(
        probs[r] * pc.tsp.tour_cost(instance, pc.perms.unrank(r, state.n), reduced)
        for r in range(probs.size)
    ))


def check_variant(pc, spec, trace, summary, enumerate_tours):
    """One optimiser run: monotone trace, allowed status, and a best
    point whose re-prepared state is normalised and gives the reported
    objective."""
    ratios = [p.ratio for p in trace.points]
    check(all(b >= a - RATIO_SLACK for a, b in zip(ratios, ratios[1:])), "ratio decreased")
    check(summary["final_ratio"] >= summary["initial_ratio"] - RATIO_SLACK,
          "final ratio below initial ratio")
    check(summary["status"] in STATUSES, f"status {summary['status']!r}")
    state = prepare(pc, spec, trace.best_params)
    check_state(state)
    vec = pc.tsp.TourCost(spec.instance, spec.reduced).vector()
    value = pc.feasible.expectation(state, vec)
    reported = summary["final_objective"]
    check(abs(value - reported) <= OBJECTIVE_RTOL * abs(reported),
          f"re-prepared objective {value!r} != reported {reported!r}")
    if enumerate_tours:
        direct = enumerated_expectation(pc, state, spec.instance, spec.reduced)
        check(abs(direct - value) <= ENUMERATION_RTOL * abs(value),
              f"enumerated expectation {direct!r} != {value!r}")


def check_circuit(state, value, c_min, c_max):
    check_state(state)
    check(c_min - 1e-9 <= value <= c_max + 1e-9,
          f"expectation {value!r} outside [{c_min!r}, {c_max!r}]")


def check_gate(pc, seq, thetas, start, after, seed):
    """The last gate of the circuit that prepared `after`, checked on
    sampled ranks r against cos(t) a[r] - i sin(t) a[rank(unrank(r) . h)]
    with rank arithmetic from `perms` only, so the check holds however
    gates are applied."""
    n = seq.n
    prefix = pc.sequences.GeneratingSequence(n, seq.elements[:-1], action_side=seq.action_side)
    before = pc.feasible.run_exhaustive_circuit(prefix, thetas[:-1], start).amps
    after = after.amps
    h, theta = seq.elements[-1], thetas[-1]
    rng = np.random.default_rng(seed)
    for r in rng.choice(before.size, size=min(GATE_SAMPLES, before.size), replace=False):
        p = pc.perms.unrank(int(r), n)
        moved = pc.perms.compose(p, h) if seq.action_side == "right" else pc.perms.compose(h, p)
        want = np.cos(theta) * before[r] - 1j * np.sin(theta) * before[pc.perms.rank(moved)]
        check(abs(after[r] - want) <= GATE_ATOL, f"gate output wrong at rank {r}")


def check_optimum(pc, instance, vec):
    """The reduced optimum agrees with the cost vector; returns its tour."""
    perm, cost = pc.tsp.optimum(instance, True)
    c_min = float(vec.min())
    check(abs(cost - c_min) <= COST_RTOL * c_min, f"optimum {cost!r} != min of cost vector {c_min!r}")
    tour = pc.tsp.tour_cost(instance, perm, True)
    check(abs(tour - cost) <= COST_RTOL * cost, f"optimum tour costs {tour!r}, not {cost!r}")
    return perm
