"""The correctness gate rejects injected wrong results and accepts true ones."""

import numpy as np
import pytest

import gate
from run import Package


@pytest.fixture(scope="module")
def pc():
    return Package()


@pytest.fixture(scope="module")
def variant(pc):
    inst = pc.tsp.random_instance(5, seed=3)
    spec = pc.experiment.RunSpec(inst, method="bubble", opt=pc.optimize.OptConfig(max_iters=5))
    trace, summary = pc.experiment.run_experiment(spec)
    return spec, trace, summary


def judged(verify, result):
    g = gate.Gate()
    g.judge("op", verify, result)
    return g


def test_true_results_pass(pc, variant):
    spec, trace, summary = variant
    g = judged(lambda out: gate.check_variant(pc, spec, *out, enumerate_tours=True), (trace, summary))
    assert (g.attempted, g.failed) == (1, 0), g.failures
    report = pc.experiment.reach_report(pc.experiment.RunSpec(spec.instance, method="binary-insertion"))
    assert judged(gate.check_fidelity, report).failed == 0


def test_state_of_norm_1_1_fails(pc):
    state = pc.feasible.uniform_feasible_state(4)
    state.amps *= 1.1
    g = judged(gate.check_state, state)
    assert g.failed == 1 and "norm" in g.failures[0]
    assert g.error_rate == 1.0


def test_wrong_fidelity_fails():
    assert judged(gate.check_fidelity, {"fidelity": 1 - 1e-6}).failed == 1


def test_wrong_objective_fails(pc, variant):
    spec, trace, summary = variant
    wrong = dict(summary, final_objective=summary["final_objective"] * (1 + 1e-9))
    g = judged(lambda out: gate.check_variant(pc, spec, *out, enumerate_tours=False), (trace, wrong))
    assert g.failed == 1 and "objective" in g.failures[0]


def test_raised_operation_fails():
    assert judged(gate.check_state, None).failed == 1


def test_wrong_gate_output_fails(pc):
    seq = pc.sequences.binary_insertion_sequence(5)
    thetas = np.random.default_rng(0).uniform(0, np.pi, len(seq))
    start = pc.perms.identity(5)
    state = pc.feasible.run_exhaustive_circuit(seq, thetas, start)
    assert judged(lambda s: gate.check_gate(pc, seq, thetas, start, s, 0), state).failed == 0
    state.amps[:] = state.amps[::-1]
    assert judged(lambda s: gate.check_gate(pc, seq, thetas, start, s, 0), state).failed == 1


def test_expectation_outside_cost_range_fails(pc):
    state = pc.feasible.uniform_feasible_state(3)
    assert judged(lambda s: gate.check_circuit(s, 12.0, 1.0, 10.0), state).failed == 1
