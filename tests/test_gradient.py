import tracemalloc
from math import factorial

import numpy as np
import pytest

import permcirc.feasible as feasible
from permcirc.checks import (
    check_bounded_gradient,
    check_circuit_reuse,
    check_gradient,
    gradient_cases,
)
from permcirc.feasible import (
    Action,
    Circuit,
    apply_phase,
    circuit_steps,
    expectation,
    expectation_gradient,
    run_steps,
    uniform_feasible_state,
)
from permcirc.perms import right_action
from permcirc.qaoa import QaoaConfig, initial_state, qaoa_steps
from permcirc.sequences import bubble_sequence
from permcirc.tsp import TourCost, random_instance


def forward_difference(f, x, step=1e-6):
    """The stop rule's former gradient: one probe per coordinate."""
    fx = f(x)
    return np.array([(f(x + step * e) - fx) / step for e in np.eye(x.size)])


def test_gradient_check():
    ok, detail = check_gradient()
    assert ok, detail


def test_bounded_gradient_check():
    ok, detail = check_bounded_gradient()
    assert ok, detail


def test_circuit_reuse_check():
    ok, detail = check_circuit_reuse(n=6, seed=2)
    assert ok, detail


def test_forward_differences_agree_at_degree_7():
    # sequence circuits only: their forward differences land within about
    # 2e-6 of the exact gradient here.  A phase angle's second derivative
    # grows with the squared cost spread, which puts QAOA's up to 2e-5
    # off; check_gradient covers QAOA with central differences.
    n = 7
    cost = TourCost(random_instance(n + 1, seed=3), reduced=True)
    vec = cost.vector()
    rng = np.random.default_rng(11)
    start = tuple(rng.permutation(n).tolist())
    for name, d, initial, steps, weights, circuit in gradient_cases(cost, start):
        if name.startswith("qaoa"):
            continue
        x = rng.uniform(0, np.pi, d)
        fd = forward_difference(lambda y: expectation(circuit(y), vec), x)
        exact = expectation_gradient(initial(), steps, x, weights)
        assert np.max(np.abs(exact - fd)) < 5e-6, name


@pytest.mark.parametrize("case", ["binary-insertion right-action", "qaoa uniform wraparound=True"])
def test_gradient_allocates_no_per_gate_state(case):
    # with its tables built, a sweep holds the state, the costate, a spare
    # of each and one gathered block at a time; the allowance covers the
    # interpreter's small objects
    n = 8
    cost = TourCost(random_instance(n + 1, seed=4), reduced=True)
    vec = cost.vector()
    start = (3, 1, 7, 0, 2, 6, 4, 5)
    _, d, initial, steps, _, _ = next(c for c in gradient_cases(cost, start) if c[0] == case)
    thetas = np.random.default_rng(4).uniform(0, 2 * np.pi, d)
    expectation_gradient(initial(), steps, thetas, vec)
    state_bytes = factorial(n) * 16
    block_bytes = feasible.GATE_BLOCK * 16
    tracemalloc.start()
    try:
        expectation_gradient(initial(), steps, thetas, vec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * state_bytes + block_bytes + 16384


def walk_peak(initial, steps, vec, d):
    """A `Circuit` after a walk of values and gradients that resumes part
    way and reuses psi_final, and the traced peak of building and walking
    it."""
    rng = np.random.default_rng(4)
    points = [rng.uniform(0, 2 * np.pi, d)]
    for i in (d - 1, d // 2, 0):
        points.append(points[-1].copy())
        points[-1][i] += 0.1
    tracemalloc.start()
    try:
        circuit = Circuit(initial(), steps, vec)
        for x in points:
            circuit.value(x)
            circuit.gradient(x)
            circuit.value(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < circuit.steps_skipped < circuit.forward_steps
    return circuit, peak


@pytest.mark.parametrize("case", ["binary-insertion right-action", "qaoa uniform wraparound=True"])
def test_circuit_holds_its_checkpoints_and_four_states(case):
    # the checkpoints (the initial state among them), two states for the
    # pass and two for the costate, and for QAOA at most CHECKPOINTS
    # arrays of phase factors, one a state's size; one gathered block and
    # the interpreter's small objects on top
    n = 8
    cost = TourCost(random_instance(n + 1, seed=4), reduced=True)
    vec = cost.vector()
    start = (3, 1, 7, 0, 2, 6, 4, 5)
    _, d, initial, steps, _, _ = next(c for c in gradient_cases(cost, start) if c[0] == case)
    circuit, peak = walk_peak(initial, steps, vec, d)
    held = feasible.CHECKPOINTS if case.startswith("qaoa") else 0
    assert circuit.phase_builds < circuit.phase_steps or not held
    state_bytes = factorial(n) * 16
    block_bytes = feasible.GATE_BLOCK * 16
    assert peak < (feasible.CHECKPOINTS + 4 + held) * state_bytes + block_bytes + 16384


def test_a_deep_qaoa_circuit_holds_no_more_factor_arrays():
    # more layers than CHECKPOINTS, each at its own gamma: the circuit
    # holds CHECKPOINTS arrays of factors and computes the rest in place,
    # within the same bound as a circuit of as many layers as CHECKPOINTS
    n = 8
    vec = TourCost(random_instance(n + 1, seed=4), reduced=True).vector()
    cfg = QaoaConfig(feasible.CHECKPOINTS + 2, "uniform")
    circuit, peak = walk_peak(lambda: initial_state(cfg, n), qaoa_steps(vec, cfg, n), vec,
                              2 * cfg.layers)
    assert len(circuit._held) == feasible.CHECKPOINTS
    assert 0 < circuit.phase_steps - circuit.phase_builds
    state_bytes = factorial(n) * 16
    block_bytes = feasible.GATE_BLOCK * 16
    assert peak < (2 * feasible.CHECKPOINTS + 4) * state_bytes + block_bytes + 16384


def test_a_pass_that_raises_leaves_no_checkpoint_behind(monkeypatch):
    # the failing pass starts from the initial state and raises near its
    # end, after overwriting every checkpoint; the next point differs from
    # the one before it only in its last angle
    n = 6
    vec = TourCost(random_instance(n + 1, seed=2), reduced=True).vector()
    steps = circuit_steps(bubble_sequence(n))
    rng = np.random.default_rng(2)
    x = rng.uniform(0, np.pi, len(steps))
    y, z = x.copy(), x.copy()
    y[0] += 0.5
    z[-1] += 0.5
    circuit = Circuit(uniform_feasible_state(n), steps, vec)
    circuit.value(x)

    # every step is a gate, mixed in one call on this one-block state
    mix = feasible._mix
    calls = []

    def failing_mix(*args, **kwargs):
        calls.append(None)
        if len(calls) == len(steps) - 1:
            raise RuntimeError("gate failed")
        return mix(*args, **kwargs)

    monkeypatch.setattr(feasible, "_mix", failing_mix)
    with pytest.raises(RuntimeError, match="gate failed"):
        circuit.value(y)
    monkeypatch.setattr(feasible, "_mix", mix)
    for point in (z, x):
        fresh = run_steps(uniform_feasible_state(n), steps, point)
        assert circuit.value(point) == expectation(fresh, vec)
    assert (circuit.gradient(z).tobytes()
            == expectation_gradient(uniform_feasible_state(n), steps, z, vec).tobytes())
    assert circuit.state(z).amps.tobytes() == run_steps(uniform_feasible_state(n), steps, z).amps.tobytes()


def test_a_pass_that_raises_holds_no_half_built_factors(monkeypatch):
    # degree 5 in five blocks of 24 (GATE_BLOCK 40), QAOA without the
    # wraparound slot: the pass at y resumes at step 3 and runs (2 3),
    # (3 4) and the phase of gamma_1 block by block, so it has built that
    # phase's factors in two blocks when the third block's first gate raises
    monkeypatch.setattr(feasible, "GATE_BLOCK", 40)
    n = 5
    vec = TourCost(random_instance(n + 1, seed=2), reduced=True).vector()
    cfg = QaoaConfig(2, "uniform", slot_wraparound=False)
    steps = qaoa_steps(vec, cfg, n)
    x = np.random.default_rng(2).uniform(0, np.pi, 4)
    y = x.copy()
    y[3] += 0.5
    circuit = Circuit(initial_state(cfg, n), steps, vec)
    circuit.value(x)
    mix = feasible._mix
    calls = []

    def failing_mix(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("gate failed")
        return mix(*args, **kwargs)

    monkeypatch.setattr(feasible, "_mix", failing_mix)
    with pytest.raises(RuntimeError, match="gate failed"):
        circuit.value(y)
    monkeypatch.setattr(feasible, "_mix", mix)
    assert circuit.value(y) == expectation(run_steps(initial_state(cfg, n), steps, y), vec)


@pytest.mark.parametrize("block", [7, 40])
def test_gradient_is_independent_of_the_block_size(monkeypatch, block):
    # 120 amplitudes in blocks of 6 (GATE_BLOCK 7) or of 24 (GATE_BLOCK 40)
    n = 5
    cost = TourCost(random_instance(n + 1, seed=5), reduced=True)
    rng = np.random.default_rng(block)
    cases = [(name, initial, steps, weights, rng.uniform(0, 2 * np.pi, d))
             for name, d, initial, steps, weights, _ in gradient_cases(cost, (2, 4, 0, 3, 1))]
    want = [expectation_gradient(initial(), steps, x, weights) for _, initial, steps, weights, x in cases]
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    for (name, initial, steps, weights, x), expected in zip(cases, want):
        got = expectation_gradient(initial(), steps, x, weights)
        assert np.max(np.abs(got - expected)) < 1e-12, name


@pytest.mark.parametrize("block", [7, 16384])
def test_gradient_refuses_an_out_of_range_table(monkeypatch, block):
    # the 12 chunk ranks of a period of 24 ranks, refused as the action is
    # built, whether blocks of 6 lie inside the period (GATE_BLOCK 7) or
    # the state is one block
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    steps = circuit_steps(bubble_sequence(5))
    mid, chunk = right_action(bubble_sequence(5).elements[1])
    bad = mid.copy()
    bad[-1] = len(bad)
    vec = TourCost(random_instance(6, seed=1), reduced=True).vector()
    with pytest.raises(IndexError):
        steps[1] = (Action.of(5, bad, chunk), steps[1][1])
        expectation_gradient(uniform_feasible_state(5), steps, np.full(len(steps), 0.4), vec)


@pytest.mark.parametrize("length", [1, 23, 25])
def test_cost_length_must_match_the_state(length):
    # a one-entry cost would broadcast over every amplitude
    state = uniform_feasible_state(4)
    bad = np.full(length, 5.0)
    good = np.linspace(1.0, 2.0, 24)
    with pytest.raises(ValueError, match=f"generator has {length} entries for 24 amplitudes"):
        apply_phase(state, 0.3, bad)
    with pytest.raises(ValueError, match="entries for 24 amplitudes"):
        expectation(state, bad)
    with pytest.raises(ValueError, match="entries for 24 amplitudes"):
        expectation_gradient(state, [(bad, 0)], [0.3], good)
    with pytest.raises(ValueError, match="entries for 24 amplitudes"):
        expectation_gradient(state, [(good, 0)], [0.3], bad)
