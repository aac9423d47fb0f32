"""The index layer: prefix-recursive `perm_table`, prefix ranking,
window-built action tables, and the blocked gate kernel."""

import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import permcirc.feasible as feasible
from permcirc.feasible import (
    FeasibleState,
    apply_involution_exp,
    apply_phase,
    basis_state,
    involution_action,
    run_exhaustive_circuit,
    uniform_feasible_state,
)
from permcirc.limits import TooLarge
from permcirc.perms import compose, perm_table, rank, rank_rows, transposition, unrank
from permcirc.qaoa import QaoaConfig, apply_seq_mixer, initial_state, mixer_slot_action, run_qaoa
from permcirc.sequences import binary_insertion_sequence, bubble_sequence
from permcirc.tsp import TourCost, random_instance


def elements(n):
    """Every bubble and binary-insertion element, every QAOA slot swap
    (the wraparound slot included) and (0 2)(1 3)."""
    hs = set(bubble_sequence(n).elements) | set(binary_insertion_sequence(n).elements)
    hs |= {transposition(n, t, t + 1) for t in range(n - 1)}
    if n >= 2:
        hs.add(transposition(n, 0, n - 1))
    if n >= 4:
        hs.add((2, 3, 0, 1) + tuple(range(4, n)))
    return sorted(hs)


@pytest.mark.parametrize("n", range(1, 8))
def test_involution_action_matches_composition(n):
    # enumeration order is rank order (test_perms); the dict stands in for
    # rank() so that degree 7 stays quick, and rank/unrank spot-check it
    tours = list(permutations(range(n)))
    index = {p: r for r, p in enumerate(tours)}
    for h in elements(n):
        right = involution_action(h, "right")
        left = involution_action(h, "left")
        assert right.dtype == left.dtype == np.int64
        assert list(right) == [index[compose(p, h)] for p in tours]
        assert list(left) == [index[compose(h, p)] for p in tours]
        for r in range(0, factorial(n), 97):
            assert right[r] == rank(compose(unrank(r, n), h))
            assert left[r] == rank(compose(h, unrank(r, n)))


@pytest.mark.parametrize("n", range(0, 9))
def test_perm_table_matches_itertools(n):
    table = perm_table(n)
    assert table.dtype == np.int8 and table.shape == (factorial(n), n)
    expected = np.array(list(permutations(range(n))), dtype=np.int8).reshape(factorial(n), n)
    assert np.array_equal(table, expected)
    assert not table.flags.writeable


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_rows_ranks_prefixes(n):
    for m in range(1, n + 1):
        rows = np.array(list(permutations(range(n), m)), dtype=np.int8)
        assert np.array_equal(rank_rows(rows, n), np.arange(len(rows)))
        assert np.array_equal(rank_rows(rows[::-1], n), np.arange(len(rows))[::-1])


def test_rank_caps_refuse_before_allocating():
    message = "^permutation table of degree 12 needs 8.9 GiB; cap is degree 11$"
    with pytest.raises(TooLarge, match=message):
        perm_table(12)
    with pytest.raises(TooLarge, match=message):
        rank_rows(np.zeros((1, 2), dtype=np.int8), 12)
    with pytest.raises(ValueError, match="not prefixes"):
        rank_rows(np.zeros((1, 3), dtype=np.int8), 2)


def bits(state):
    return state.amps.tobytes()


def spare_like(state):
    return FeasibleState(state.n, np.empty_like(state.amps))


def reference_gate(state, action, theta):
    """The gate as one allocating expression, the kernel's bit-level oracle."""
    amps = np.cos(theta) * state.amps - 1j * np.sin(theta) * state.amps[action]
    return FeasibleState(state.n, amps)


def reference_phase(state, gamma, cost):
    return FeasibleState(state.n, np.exp(-1j * gamma * cost) * state.amps)


def functional_circuit(seq, thetas, start):
    state = basis_state(start)
    for h, theta in zip(seq.elements, thetas):
        state = reference_gate(state, involution_action(h, seq.action_side), theta)
    return state


def phased_uniform_state(n):
    state = uniform_feasible_state(n)
    state.amps *= np.exp(1j * np.arange(state.amps.size))
    return state


@pytest.mark.parametrize("build", [bubble_sequence, binary_insertion_sequence])
@pytest.mark.parametrize("side", ["right", "left"])
def test_buffered_circuit_is_bit_identical(build, side):
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 6):
        seq = build(n)
        seq = type(seq)(seq.n, seq.elements, kind=seq.kind, action_side=side)
        thetas = rng.uniform(0, 2 * np.pi, len(seq))
        start = tuple(rng.permutation(n).tolist())
        assert bits(run_exhaustive_circuit(seq, thetas, start)) == bits(functional_circuit(seq, thetas, start))


@pytest.mark.parametrize("block", [7, 40, 120])
def test_blocked_gate_is_bit_identical(monkeypatch, block):
    # 120 amplitudes: a partial last block, whole blocks, and one block
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    rng = np.random.default_rng(block)
    for build in (bubble_sequence, binary_insertion_sequence):
        seq = build(5)
        thetas = rng.uniform(0, 2 * np.pi, len(seq))
        assert bits(run_exhaustive_circuit(seq, thetas, (4, 2, 0, 1, 3))) == bits(
            functional_circuit(seq, thetas, (4, 2, 0, 1, 3))
        )
    state = phased_uniform_state(5)
    action = involution_action(transposition(5, 1, 3), "left")
    expected = bits(reference_gate(state, action, 0.9))
    assert bits(apply_involution_exp(state, action, 0.9, out=spare_like(state))) == expected
    assert bits(apply_involution_exp(state, action, 0.9)) == expected


def test_degree_8_buffered_circuit_is_bit_identical():
    # 40320 amplitudes span several default-size blocks
    seq = binary_insertion_sequence(8)
    thetas = np.random.default_rng(8).uniform(0, 2 * np.pi, len(seq))
    start = (3, 1, 7, 0, 2, 6, 4, 5)
    assert bits(run_exhaustive_circuit(seq, thetas, start)) == bits(functional_circuit(seq, thetas, start))


def test_default_block_gate_on_degree_8():
    # 40320 amplitudes: two whole default-size blocks and a partial one
    assert factorial(8) > 2 * feasible.GATE_BLOCK
    state = phased_uniform_state(8)
    for side in ("right", "left"):
        action = involution_action(binary_insertion_sequence(8).elements[0], side)
        assert bits(apply_involution_exp(state, action, 0.9)) == bits(reference_gate(state, action, 0.9))
    bad = np.arange(factorial(8))
    bad[-1] = factorial(8)
    with pytest.raises(IndexError):
        apply_involution_exp(state, bad, 0.3)
    with pytest.raises(IndexError):
        apply_involution_exp(state, bad, 0.3, out=spare_like(state))


def test_circuit_allocates_no_per_gate_state():
    # with its tables built, a circuit holds two states and one gathered
    # block at a time; the allowance covers the interpreter's small objects
    seq = binary_insertion_sequence(8)
    thetas = np.random.default_rng(4).uniform(0, 2 * np.pi, len(seq))
    start = (3, 1, 7, 0, 2, 6, 4, 5)
    run_exhaustive_circuit(seq, thetas, start)
    state_bytes = factorial(8) * 16
    block_bytes = feasible.GATE_BLOCK * 16
    tracemalloc.start()
    try:
        run_exhaustive_circuit(seq, thetas, start)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * state_bytes + block_bytes + 16384


@pytest.mark.parametrize("initial", ["basis", "uniform"])
@pytest.mark.parametrize("wraparound", [True, False])
@pytest.mark.parametrize("n", [5, 6])
def test_buffered_qaoa_is_bit_identical(initial, wraparound, n):
    # n slots with wraparound, n-1 without: odd and even counts both ways
    rng = np.random.default_rng(n)
    cost = TourCost(random_instance(n + 1, seed=n), reduced=True)
    cfg = QaoaConfig(3, initial, wraparound)
    betas, gammas = rng.uniform(0, np.pi, (2, cfg.layers))
    state = initial_state(cfg, n)
    for beta, gamma in zip(betas, gammas):
        state = reference_phase(state, gamma, cost.vector())
        for t in range(n if wraparound else n - 1):
            state = reference_gate(state, mixer_slot_action(t, n, wraparound), beta)
    assert bits(run_qaoa(cost, cfg, betas, gammas)) == bits(state)


def test_seq_mixer_is_bit_identical_with_and_without_spare():
    for wraparound in (True, False):
        state = phased_uniform_state(5)
        expected = state
        for t in range(5 if wraparound else 4):
            expected = reference_gate(expected, mixer_slot_action(t, 5, wraparound), 0.4)
        before = bits(state)
        assert bits(apply_seq_mixer(state, 0.4, wraparound)) == bits(expected)
        assert bits(state) == before
        spare = spare_like(state)
        got = apply_seq_mixer(state, 0.4, wraparound, spare=spare)
        assert got is (spare if wraparound else state)  # 5 slots or 4
        assert bits(got) == bits(expected)


@pytest.mark.parametrize("block", [2, 16384])
def test_out_of_range_table_raises_on_both_paths(monkeypatch, block):
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    state = uniform_feasible_state(3)
    spare = spare_like(state)
    bad = np.arange(6)
    bad[2] = 6
    # a view of a longer table
    view = involution_action(transposition(4, 0, 1), "right")[:6]
    corrupted = involution_action(transposition(3, 0, 1), "right").copy()
    corrupted[0] = 99
    for action in (bad, view, corrupted):
        with pytest.raises(IndexError):
            apply_involution_exp(state, action, 0.3)
        with pytest.raises(IndexError):
            apply_involution_exp(state, action, 0.3, out=spare)
    # a table of another degree is refused
    with pytest.raises(ValueError):
        apply_involution_exp(state, involution_action(transposition(4, 0, 1), "right"), 0.3,
                             out=spare)


def test_out_must_not_alias_the_input():
    state = uniform_feasible_state(3)
    action = involution_action(transposition(3, 0, 1), "right")
    cost = np.arange(6.0)
    with pytest.raises(ValueError):
        apply_involution_exp(state, action, 0.3, out=state)
    with pytest.raises(ValueError):
        apply_phase(state, 0.3, cost, out=state)


def test_out_returns_the_given_state_and_leaves_input():
    state = phased_uniform_state(4)
    before = bits(state)
    action = involution_action(transposition(4, 1, 2), "right")
    spare = spare_like(state)
    assert apply_involution_exp(state, action, 0.7, out=spare) is spare
    assert bits(spare) == bits(reference_gate(state, action, 0.7))
    cost = np.linspace(1.0, 2.0, state.amps.size)
    assert apply_phase(state, 0.7, cost, out=spare) is spare
    assert bits(spare) == bits(reference_phase(state, 0.7, cost))
    assert bits(apply_phase(state, 0.7, cost)) == bits(spare)
    assert bits(state) == before
