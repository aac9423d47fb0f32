from math import factorial

import numpy as np
import pytest
from scipy.stats import chisquare

from permcirc.checks import check_norm_preservation, check_reachability
from permcirc.feasible import (
    FeasibleState,
    apply_involution_exp,
    apply_phase,
    basis_state,
    circuit_steps,
    expectation,
    expectation_gradient,
    fidelity,
    involution_action,
    probabilities,
    reachability_params,
    run_exhaustive_circuit,
    run_steps,
    sample,
    uniform_feasible_state,
)
from permcirc.limits import TooLarge
from permcirc.perms import (
    all_perms,
    compose,
    identity,
    inverse,
    inverse_ranks,
    is_involution,
    rank,
    transposition,
    unrank,
)
from permcirc.sequences import binary_insertion_sequence, bubble_sequence
from permcirc.tsp import TourCost, random_instance, tour_cost


def test_basis_state():
    state = basis_state(identity(4))
    assert state.amps[0] == 1.0
    assert np.count_nonzero(state.amps) == 1
    assert state.norm() == pytest.approx(1.0)
    p = (2, 0, 1)
    assert basis_state(p).amps[rank(p)] == 1.0


def test_basis_state_expectation_is_tour_cost():
    inst = random_instance(5, seed=1)
    cost = TourCost(inst).vector()
    for p in [identity(5), (4, 2, 0, 1, 3)]:
        assert expectation(basis_state(p), cost) == pytest.approx(tour_cost(inst, p))


def test_uniform_state():
    state = uniform_feasible_state(3)
    assert state.amps.shape == (6,)
    assert np.allclose(state.amps, 1 / np.sqrt(6))
    assert state.norm() == pytest.approx(1.0)
    inst = random_instance(3, seed=2)
    cost = TourCost(inst).vector()
    mean = np.mean([tour_cost(inst, p) for p in all_perms(3)])
    assert expectation(state, cost) == pytest.approx(mean)


def test_degree_cap():
    with pytest.raises(TooLarge, match="^state of degree 11 needs 0.6 GiB a copy; cap is degree 10$"):
        uniform_feasible_state(11)


def images(action):
    """The action's whole rank table."""
    return action.take(np.arange(factorial(action.n)))


def test_involution_action_identity_element():
    action = involution_action(identity(4))
    assert action.period == 1
    assert np.array_equal(images(action), np.arange(factorial(4)))


def test_involution_action_right_on_identity():
    tau = transposition(4, 0, 1)
    action = images(involution_action(tau))
    assert action[rank(identity(4))] == rank((1, 0, 2, 3))


def test_left_action_is_the_right_action_through_j():
    # J, the rank table of p -> p^-1, is an involution, and J . R_h . J
    # maps rank(p) to rank(h . p) where R_h maps it to rank(p . h)
    for n in range(1, 6):
        j = inverse_ranks(n)
        assert np.array_equal(j[j], np.arange(factorial(n)))
        for p in all_perms(n):
            assert unrank(int(j[rank(p)]), n) == inverse(p)
        for h in set(bubble_sequence(n).elements) | set(binary_insertion_sequence(n).elements):
            right = images(involution_action(h))
            left = j[right[j]]
            for p in all_perms(n):
                assert unrank(int(right[rank(p)]), n) == compose(p, h)
                assert unrank(int(left[rank(p)]), n) == compose(h, p)


def test_involution_action_is_involution():
    for h in set(bubble_sequence(4).elements) | set(binary_insertion_sequence(4).elements):
        action = images(involution_action(h))
        assert np.array_equal(action[action], np.arange(factorial(4)))


def test_involution_action_rejects_non_involution():
    # tuples that are not permutations, (2, 0) and (3, 3, 3), are not
    # involutions either
    assert not is_involution((3, 3, 3))
    for element in ((1, 2, 0), (2, 0), (3, 3, 3)):
        with pytest.raises(ValueError, match="not an involution"):
            involution_action(element)


def test_apply_involution_exp_angles():
    state = uniform_feasible_state(4)
    state.amps *= np.exp(1j * np.linspace(0, 1, state.amps.size))  # dephase
    action = involution_action(transposition(4, 1, 2))

    unchanged = apply_involution_exp(state, action, 0.0)
    assert np.allclose(unchanged.amps, state.amps, atol=1e-14)

    quarter = apply_involution_exp(state, action, np.pi / 2)
    assert np.allclose(quarter.amps, -1j * action.take(state.amps), atol=1e-12)

    p = (1, 0, 2, 3)
    eighth = apply_involution_exp(basis_state(p), action, np.pi / 4)
    partner = unrank(int(images(action)[rank(p)]), 4)
    assert eighth.amps[rank(p)] == pytest.approx(np.sqrt(0.5))
    assert eighth.amps[rank(partner)] == pytest.approx(-1j * np.sqrt(0.5))


def test_apply_involution_exp_matches_dense_matrix():
    rng = np.random.default_rng(4)
    size = factorial(4)
    for h in binary_insertion_sequence(4).elements:
        action = involution_action(h)
        P = np.zeros((size, size))
        P[np.arange(size), images(action)] = 1.0  # row r gathers amp[a(r)]
        theta = rng.uniform(0, 2 * np.pi)
        gate = np.cos(theta) * np.eye(size) - 1j * np.sin(theta) * P
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps /= np.linalg.norm(amps)
        state = basis_state(identity(4))
        state.amps = amps
        direct = apply_involution_exp(state, action, theta)
        assert np.max(np.abs(direct.amps - gate @ amps)) <= 1e-12


def test_pi_shift_gives_unit_fidelity():
    state = uniform_feasible_state(4)
    action = involution_action(transposition(4, 0, 3))
    theta = 0.7
    a = apply_involution_exp(state, action, theta)
    b = apply_involution_exp(state, action, theta + np.pi)
    overlap = abs(np.vdot(a.amps, b.amps))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(a.amps, -b.amps, atol=1e-12)


def test_apply_phase():
    inst = random_instance(4, seed=3)
    cost = TourCost(inst).vector()
    state = uniform_feasible_state(4)
    unchanged = apply_phase(state, 0.0, cost)
    assert np.allclose(unchanged.amps, state.amps)
    shifted = apply_phase(state, 1.3, cost)
    assert np.allclose(np.abs(shifted.amps), np.abs(state.amps), atol=1e-14)
    p = (2, 1, 3, 0)
    phased = apply_phase(basis_state(p), 0.9, cost)
    assert phased.amps[rank(p)] == pytest.approx(np.exp(-1j * 0.9 * tour_cost(inst, p)))
    assert abs(np.vdot(phased.amps, basis_state(p).amps)) == pytest.approx(1.0)


def test_run_exhaustive_circuit_zero_angles():
    seq = bubble_sequence(4)
    start = (3, 1, 0, 2)
    state = run_exhaustive_circuit(seq, np.zeros(len(seq)), start)
    assert np.array_equal(state.amps, basis_state(start).amps)
    with pytest.raises(ValueError):
        run_exhaustive_circuit(seq, np.zeros(len(seq) - 1), start)


@pytest.mark.parametrize("count", [0, 3, 5, 7, 10])
def test_step_runners_need_one_angle_per_index(count):
    # the degree-4 bubble circuit has angle indices 0..5; too many angles
    # would run silently and too few would fail mid-circuit
    steps = circuit_steps(bubble_sequence(4))
    vec = np.arange(24.0)
    message = f"^need 6 angles, got shape \\({count},\\)$"
    with pytest.raises(ValueError, match=message):
        run_steps(basis_state((0, 1, 2, 3)), steps, np.zeros(count))
    with pytest.raises(ValueError, match=message):
        expectation_gradient(basis_state((0, 1, 2, 3)), steps, np.zeros(count), vec)
    with pytest.raises(ValueError, match=message):
        run_exhaustive_circuit(bubble_sequence(4), np.zeros(count), (0, 1, 2, 3))
    with pytest.raises(ValueError, match="^need 6 angles, got shape \\(1, 6\\)$"):
        run_steps(basis_state((0, 1, 2, 3)), steps, np.zeros((1, 6)))
    # steps that share an angle need only the indices they use
    shared = [(action, 0) for action, _ in steps]
    assert run_steps(basis_state((0, 1, 2, 3)), shared, [0.0]).amps[0] == 1


def test_degree_mismatches_are_refused():
    with pytest.raises(ValueError, match="^target tour has degree 3, state degree 4$"):
        fidelity(basis_state((0, 1, 2, 3)), (0, 1, 2))
    with pytest.raises(ValueError, match="^start tour has degree 3, sequence degree 1$"):
        run_exhaustive_circuit(bubble_sequence(1), [], (1, 0, 2))


def test_norm_preserved_through_long_circuits():
    ok, detail = check_norm_preservation(seed=6, gates=1000)
    assert ok, detail


def test_reachability_target_equals_start():
    seq = binary_insertion_sequence(5)
    start = (4, 0, 1, 3, 2)
    thetas = reachability_params(seq, start, start)
    assert np.array_equal(thetas, np.zeros(len(seq)))


@pytest.mark.parametrize("build", [bubble_sequence, binary_insertion_sequence])
def test_reachability_exhaustive_n4(build):
    ok, detail = check_reachability((4,), all_starts=(4,), builds=(build,))
    assert ok, detail


@pytest.mark.parametrize("build", [bubble_sequence, binary_insertion_sequence])
def test_reachability_all_pairs_n5_batched(build):
    # gates act column-wise on a stacked basis, so one circuit per mask
    # covers every start; as the mask product ranges over S_5 this checks
    # all 120 x 120 (start, target) pairs with unit fidelity
    from permcirc.sequences import decompose

    n, size = 5, factorial(5)
    seq = build(n)
    table = {p: rank(p) for p in all_perms(n)}
    for g in all_perms(n):
        thetas = np.pi / 2 * np.asarray(decompose(seq, g), dtype=float)
        state = FeasibleState(n, np.eye(size, dtype=complex))
        for h, theta in zip(seq.elements, thetas):
            state = apply_involution_exp(state, involution_action(h), theta)
        g_inv = tuple(np.argsort(g).tolist())
        for start in all_perms(n):
            target_rank = table[compose(start, g_inv)]
            assert abs(abs(state.amps[target_rank, table[start]]) - 1.0) <= 1e-10


def test_reachability_left_action():
    seq = bubble_sequence(4)
    left = type(seq)(seq.n, seq.elements, action_side="left")
    for target in all_perms(4):
        thetas = reachability_params(left, identity(4), target)
        state = run_exhaustive_circuit(left, thetas, identity(4))
        assert fidelity(state, target) == pytest.approx(1.0, abs=1e-10)


def test_probabilities_and_sampling():
    state = basis_state((1, 0, 2))
    probs = probabilities(state)
    assert probs[rank((1, 0, 2))] == pytest.approx(1.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert sample(state, seed=0, k=5) == [(1, 0, 2)] * 5

    uniform = uniform_feasible_state(3)
    draws = sample(uniform, seed=42, k=100_000)
    counts = np.bincount([rank(p) for p in draws], minlength=6)
    result = chisquare(counts)
    assert result.pvalue > 1e-3
    assert sample(uniform, seed=42, k=50) == sample(uniform, seed=42, k=50)


def test_expectation_constant_cost():
    inst_w = np.full((4, 4), 2.5)
    np.fill_diagonal(inst_w, 0.0)
    from permcirc.tsp import TspInstance

    cost = TourCost(TspInstance(inst_w)).vector()
    state = uniform_feasible_state(4)
    assert expectation(state, cost) == pytest.approx(4 * 2.5)
