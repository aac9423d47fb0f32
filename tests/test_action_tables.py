"""The index layer: prefix-recursive `perm_table`, prefix ranking,
action tables of chunk ranks, the block grid, the blocked gate kernel and
blocked step runs."""

import tracemalloc
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import permcirc.feasible as feasible
from permcirc.checks import check_action_tables, check_blocked_runs, check_circuit_reuse
from permcirc.feasible import (
    Action,
    Circuit,
    FeasibleState,
    apply_involution_exp,
    apply_phase,
    basis_state,
    circuit_steps,
    expectation,
    expectation_gradient,
    involution_action,
    run_exhaustive_circuit,
    run_steps,
    uniform_feasible_state,
)
from permcirc.limits import TooLarge
from permcirc.perms import (
    compose,
    inverse_ranks,
    is_involution,
    perm_table,
    rank,
    rank_rows,
    right_action,
    transposition,
    unrank,
)
from permcirc.qaoa import QaoaConfig, initial_state, mixer_slot_action, qaoa_steps, run_qaoa
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


def images(action):
    """The action's whole rank table, gathered as a gate gathers."""
    return action.take(np.arange(factorial(action.n)))


@lru_cache(maxsize=None)
def reference_table(h, side="right"):
    """rank(p . h) (or rank(h . p)) for every tour p in rank order, from
    the rows of `perm_table` ranked whole: no period, window or block."""
    tours = perm_table(len(h))
    rows = tours[:, list(h)] if side == "right" else np.asarray(h)[tours]
    return rank_rows(rows, len(h))


def scalar_table(h):
    """rank(unrank(r) . h) for every rank r, one tour at a time."""
    n = len(h)
    return np.array([rank(compose(unrank(r, n), h)) for r in range(factorial(n))])


def period_of(h):
    """(n - s)! for the first position s that h moves, 1 for the identity."""
    moved = [i for i, v in enumerate(h) if v != i]
    return factorial(len(h) - moved[0]) if moved else 1


def chunk_of(h):
    """(n - e - 1)! for the last position e that h moves, 1 for the identity."""
    moved = [i for i, v in enumerate(h) if v != i]
    return factorial(len(h) - moved[-1] - 1) if moved else 1


def period(h):
    """The P local ranks of one period of h's right action, expanded from
    its chunk ranks: local rank k*B + b goes to mid[k]*B + b."""
    mid, chunk = right_action(h)
    return (mid[:, None] * chunk + np.arange(chunk)).reshape(-1)


@pytest.mark.parametrize("n", range(1, 8))
def test_involution_action_matches_composition(n):
    # enumeration order is rank order (test_perms); the dict stands in for
    # rank() so that degree 7 stays quick, and rank/unrank spot-check it
    tours = list(permutations(range(n)))
    index = {p: r for r, p in enumerate(tours)}
    j = inverse_ranks(n)
    for h in elements(n):
        action = involution_action(h)
        assert (action.n, action.period, action.chunk) == (n, period_of(h), chunk_of(h))
        # on every grid the index is the K chunk ranks, writeable for np.take
        assert action.index.dtype == np.int64 and action.index.flags.writeable
        assert len(action.index) == action.period // action.chunk
        assert np.array_equal(action.index, right_action(h)[0])
        # the whole table a one-block gate gathers through, derived from
        # them, read-only
        right = action.table
        assert right.dtype == np.int64 and not right.flags.writeable
        assert np.array_equal(right, images(action))
        # the left action is the right action between relabellings by J
        left = j[right[j]]
        assert list(right) == [index[compose(p, h)] for p in tours]
        assert list(left) == [index[compose(h, p)] for p in tours]
        for r in range(0, factorial(n), 97):
            assert right[r] == rank(compose(unrank(r, n), h))
            assert left[r] == rank(compose(h, unrank(r, n)))


@pytest.mark.parametrize("n", range(0, 6))
def test_right_action_matches_composition(n):
    # every permutation, involution or not, the identity included: chunk
    # k of B ranks goes to chunk mid[k] of the same period, and the period
    # repeats over every run of P ranks, shifted by the run's start; for
    # involutions the gates' cached action holds these chunk ranks and
    # derives this table
    tours = [unrank(r, n) for r in range(factorial(n))]
    for g in tours:
        mid, chunk = right_action(g)
        assert mid.dtype == np.int64 and chunk == chunk_of(g)
        assert len(mid) * chunk == period_of(g) and sorted(mid) == list(range(len(mid)))
        local = period(g)
        table = (np.arange(factorial(n) // len(local))[:, None] * len(local) + local).reshape(-1)
        assert list(table) == [rank(compose(p, g)) for p in tours]
        if is_involution(g):
            action = involution_action(g)
            assert np.array_equal(action.index, mid) and np.array_equal(action.table, table)
    with pytest.raises(ValueError, match="not a permutation"):
        right_action((0, 0))


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


def reference_gate(state, table, theta):
    """The gate as one allocating expression through a flat rank table,
    the kernel's bit-level oracle."""
    amps = np.cos(theta) * state.amps - 1j * np.sin(theta) * state.amps[table]
    return FeasibleState(state.n, amps)


def reference_phase(state, gamma, cost):
    return FeasibleState(state.n, np.exp(-1j * gamma * cost) * state.amps)


def functional_circuit(seq, thetas, start):
    state = basis_state(start)
    for h, theta in zip(seq.elements, thetas):
        state = reference_gate(state, reference_table(h, seq.action_side), theta)
    return state


def phased_uniform_state(n):
    state = uniform_feasible_state(n)
    state.amps *= np.exp(1j * np.arange(state.amps.size))
    return state


@pytest.mark.parametrize("build", [bubble_sequence, binary_insertion_sequence])
@pytest.mark.parametrize("side", ["right", "left"])
def test_buffered_circuit_is_bit_identical(build, side):
    # at degrees 8 and 9 a left circuit runs through J, and periods of 8!
    # span default-size blocks; references from whole rows either way
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 6, 8, 9):
        seq = build(n)
        seq = type(seq)(seq.n, seq.elements, action_side=side)
        thetas = rng.uniform(0, 2 * np.pi, len(seq))
        start = tuple(rng.permutation(n).tolist())
        assert bits(run_exhaustive_circuit(seq, thetas, start)) == bits(functional_circuit(seq, thetas, start))


@pytest.mark.parametrize("block", [7, 40, 120])
def test_blocked_gate_is_bit_identical(monkeypatch, block):
    # 120 amplitudes in blocks of 6 or 24, and in one block
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    rng = np.random.default_rng(block)
    for build in (bubble_sequence, binary_insertion_sequence):
        seq = build(5)
        thetas = rng.uniform(0, 2 * np.pi, len(seq))
        assert bits(run_exhaustive_circuit(seq, thetas, (4, 2, 0, 1, 3))) == bits(
            functional_circuit(seq, thetas, (4, 2, 0, 1, 3))
        )
    state = phased_uniform_state(5)
    h = transposition(5, 1, 3)
    action = Action.of(5, reference_table(h, "left"))
    expected = bits(reference_gate(state, reference_table(h, "left"), 0.9))
    assert bits(apply_involution_exp(state, action, 0.9, out=spare_like(state))) == expected
    assert bits(apply_involution_exp(state, action, 0.9)) == expected


def test_degree_8_buffered_circuit_is_bit_identical():
    # 40320 amplitudes span several default-size blocks
    seq = binary_insertion_sequence(8)
    thetas = np.random.default_rng(8).uniform(0, 2 * np.pi, len(seq))
    start = (3, 1, 7, 0, 2, 6, 4, 5)
    assert bits(run_exhaustive_circuit(seq, thetas, start)) == bits(functional_circuit(seq, thetas, start))


def test_default_block_gate_on_degree_8():
    # 40320 amplitudes: two whole default-size blocks, each of whole
    # periods of 2 ranks; the left gate is the right one between
    # relabellings by J
    assert 2 * feasible._block(factorial(8)) == factorial(8)
    state = phased_uniform_state(8)
    h = binary_insertion_sequence(8).elements[0]
    action, j = involution_action(h), inverse_ranks(8)
    assert (action.period, action.chunk, len(action.index)) == (2, 1, 2)
    assert bits(apply_involution_exp(state, action, 0.9)) == bits(
        reference_gate(state, reference_table(h), 0.9))
    relabelled = FeasibleState(8, state.amps[j])
    assert apply_involution_exp(relabelled, action, 0.9).amps[j].tobytes() == bits(
        reference_gate(state, reference_table(h, "left"), 0.9))
    bad = np.arange(factorial(8))
    bad[-1] = factorial(8)
    with pytest.raises(IndexError):
        Action.of(8, bad)


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


def test_qaoa_run_allocates_no_per_gate_state():
    # without the wraparound slot each layer's run of slots 1..6 ends
    # with the next phase step; a blocked run, like a gate, holds one
    # gathered block at a time, and its phase steps hold none
    n = 8
    cfg = QaoaConfig(3, "uniform", slot_wraparound=False)
    steps = qaoa_steps(TourCost(random_instance(n + 1, seed=4), reduced=True).vector(), cfg, n)
    thetas = np.random.default_rng(4).uniform(0, 2 * np.pi, 2 * cfg.layers)
    run_steps(initial_state(cfg, n), steps, thetas)
    state_bytes = factorial(n) * 16
    block_bytes = feasible.GATE_BLOCK * 16
    tracemalloc.start()
    try:
        run_steps(initial_state(cfg, n), steps, thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * state_bytes + block_bytes + 16384


@pytest.fixture
def runs_blocked(monkeypatch):
    """The step lists of the runs that go block by block, on states longer
    than one block, in order."""
    runs = []
    blocked = feasible._blocked

    def recording(arrays, steps, thetas, costate=None, held=None):
        if feasible._block(len(arrays[0])) < len(arrays[0]):
            runs.append(steps)
        return blocked(arrays, steps, thetas, costate, held)

    monkeypatch.setattr(feasible, "_blocked", recording)
    return runs


def test_blocked_runs_check(runs_blocked):
    # 40320 amplitudes in blocks of 20160 (four of 7! = 5040): the
    # verify check at the default block
    assert factorial(8) > feasible.GATE_BLOCK
    ok, detail = check_blocked_runs()
    assert ok, detail
    assert runs_blocked


@pytest.mark.parametrize("block", [7, 40, 50])
@pytest.mark.parametrize("n", [5, 6])
def test_blocked_runs_are_bit_identical(monkeypatch, runs_blocked, n, block):
    # blocks of 6, 24 and 24 amplitudes (48 = 2 * 4! would cut periods of
    # 5! part way).  Both constructions and QAOA from both starts, with
    # and without the wraparound slot
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    ok, detail = check_blocked_runs(n=n, seed=block)
    assert ok, detail
    # without the wraparound slot a phase step joins the run before it;
    # with it, the phase step between two non-local slots is a run of one
    assert any(not isinstance(g, Action) for run in runs_blocked for g, _ in run[1:])
    assert any(len(run) == 1 and not isinstance(run[0][0], Action) for run in runs_blocked)


def test_a_non_local_gate_runs_alone_before_local_steps(monkeypatch, runs_blocked):
    # degree 5 in five blocks of 24 (GATE_BLOCK 50): a gate on position 0
    # (period 120) reads other blocks of its input, so it is a run of its
    # own, and the local steps after it, which overwrite that input block
    # by block, form the next run; references from whole rows
    monkeypatch.setattr(feasible, "GATE_BLOCK", 50)
    n = 5
    assert feasible._block(factorial(n)) == 24
    vec = TourCost(random_instance(n + 1, seed=5), reduced=True).vector()
    wide, near, far = transposition(n, 0, 1), transposition(n, 2, 3), transposition(n, 3, 4)
    steps = [(involution_action(wide), 0), (involution_action(near), 1), (vec, 2),
             (involution_action(far), 1), (involution_action(wide), 0), (vec, 2)]
    x = np.array([0.7, 1.9, 0.4])
    want = phased_uniform_state(n)
    for h, k in ((wide, 0), (near, 1), (None, 2), (far, 1), (wide, 0), (None, 2)):
        if h is None:
            want = reference_phase(want, x[k], vec)
        else:
            want = reference_gate(want, reference_table(h), x[k])
    assert bits(run_steps(phased_uniform_state(n), steps, x)) == bits(want)
    assert [[k for _, k in run] for run in runs_blocked] == [[0], [1, 2, 1], [0], [2]]
    # the sweep undoes every step, gate or phase, through the same blocks
    got = expectation_gradient(phased_uniform_state(n), steps, x, vec)
    # the same actions on one block
    monkeypatch.setattr(feasible, "GATE_BLOCK", factorial(n))
    want = expectation_gradient(phased_uniform_state(n), steps, x, vec)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("block", [7, 50])
def test_circuit_resumes_inside_runs(monkeypatch, runs_blocked, block):
    # checkpoints written inside blocked runs, and resumes from them that
    # start a run part way, give what fresh passes give, bit for bit
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    ok, detail = check_circuit_reuse(n=6, seed=2)
    assert ok, detail
    n, start = 6, (4, 2, 0, 5, 1, 3)
    vec = TourCost(random_instance(n + 1, seed=n), reduced=True).vector()
    rng = np.random.default_rng(block)
    inside = 0
    for seq in (bubble_sequence(n), binary_insertion_sequence(n)):
        # a mark before every step: a change at step i resumes at step i
        steps = circuit_steps(seq)
        monkeypatch.setattr(feasible, "CHECKPOINTS", len(steps))
        circuit = Circuit(basis_state(start), steps, vec)
        x = rng.uniform(0, np.pi, len(steps))
        circuit.value(x)
        runs_blocked.clear()
        for i in reversed(range(len(steps))):
            x = x.copy()
            x[i] += 0.5
            assert circuit.value(x) == expectation(run_steps(basis_state(start), steps, x), vec)
            assert circuit.gradient(x).tobytes() == expectation_gradient(
                basis_state(start), steps, x, vec).tobytes()
            assert bits(circuit.state(x)) == bits(run_steps(basis_state(start), steps, x))
        # blocked runs that started after a local step, inside a longer run
        local = [feasible._local(a, feasible._block(factorial(n))) for a, _ in steps]
        inside += sum(local[run[0][1] - 1] for run in runs_blocked if run[0][1])
    assert inside


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
            swap = transposition(n, t, t + 1) if t < n - 1 else transposition(n, 0, t)
            state = reference_gate(state, reference_table(swap), beta)
    assert bits(run_qaoa(cost, cfg, betas, gammas)) == bits(state)


@pytest.mark.parametrize("block", [2, 16384])
def test_out_of_range_table_raises_on_both_paths(monkeypatch, block):
    # a bad period, longer or shorter than the block, is refused as the
    # action is built, before a gate writes anything
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    state = uniform_feasible_state(3)
    spare = phased_uniform_state(3)
    before = bits(spare)
    bad = np.arange(6)
    bad[2] = 6
    # the start of a longer table
    view = period(transposition(4, 0, 1))[:6]
    corrupted = period(transposition(3, 0, 1))
    corrupted[0] = 99
    negative = period(transposition(3, 1, 2))
    negative[0] = -1
    for bad_period in (bad, view, corrupted, negative):
        with pytest.raises(IndexError, match="outside 0.."):
            apply_involution_exp(state, Action.of(3, bad_period), 0.3, out=spare)
    # the chunk ranks of (0 1) at degree 4 (12 chunks of 2 ranks), one too large
    mid, chunk = right_action(transposition(4, 0, 1))
    assert (len(mid), chunk) == (12, 2)
    mid = mid.copy()
    mid[1] = len(mid)
    with pytest.raises(IndexError, match="outside 0.."):
        Action.of(4, mid, chunk)
    assert bits(spare) == before
    # an action of another degree is refused
    with pytest.raises(ValueError):
        apply_involution_exp(state, involution_action(transposition(4, 0, 1)), 0.3, out=spare)


def test_out_must_not_alias_the_input():
    state = uniform_feasible_state(3)
    action = involution_action(transposition(3, 0, 1))
    cost = np.arange(6.0)
    with pytest.raises(ValueError):
        apply_involution_exp(state, action, 0.3, out=state)
    with pytest.raises(ValueError):
        apply_phase(state, 0.3, cost, out=state)


def test_out_returns_the_given_state_and_leaves_input():
    state = phased_uniform_state(4)
    before = bits(state)
    h = transposition(4, 1, 2)
    spare = spare_like(state)
    assert apply_involution_exp(state, involution_action(h), 0.7, out=spare) is spare
    assert bits(spare) == bits(reference_gate(state, reference_table(h), 0.7))
    cost = np.linspace(1.0, 2.0, state.amps.size)
    assert apply_phase(state, 0.7, cost, out=spare) is spare
    assert bits(spare) == bits(reference_phase(state, 0.7, cost))
    assert bits(apply_phase(state, 0.7, cost)) == bits(spare)
    assert bits(state) == before


def test_action_tables_check(monkeypatch):
    ok, detail = check_action_tables()
    assert ok, detail
    # blocks of 6, shorter than most periods
    monkeypatch.setattr(feasible, "GATE_BLOCK", 7)
    ok, detail = check_action_tables(every=range(1, 5), constructions=range(5, 7))
    assert ok, detail


def straddling_cases(n):
    """(element, action) for every distinct element of both constructions
    and every QAOA slot (with its swap), right actions built at the
    current `GATE_BLOCK`."""
    hs = set(bubble_sequence(n).elements) | set(binary_insertion_sequence(n).elements)
    cases = [(h, involution_action(h)) for h in sorted(hs)]
    for t in range(n):
        swap = transposition(n, t, t + 1) if t < n - 1 else transposition(n, 0, t)
        cases.append((swap, mixer_slot_action(t, n)))
    return cases


@pytest.mark.parametrize("block", [7, 100])
def test_straddling_gates_are_bit_identical(monkeypatch, block):
    # 720 amplitudes: blocks of 6 (GATE_BLOCK 7) lie inside periods of
    # 720, 120 and 24, and blocks of 24 (GATE_BLOCK 100) inside periods of
    # 720 and 120; shorter periods are gathered whole
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    n = 6
    state = phased_uniform_state(n)
    periods = set()
    for h, action in straddling_cases(n):
        periods.add(action.period)
        want = bits(reference_gate(state, scalar_table(h), 0.9))
        assert bits(apply_involution_exp(state, action, 0.9)) == want, h
        assert bits(apply_involution_exp(state, action, 0.9, out=spare_like(state))) == want, h
    grid = feasible._block(factorial(n))
    assert {p for p in periods if p > grid} and {p for p in periods if p < grid}


@pytest.mark.parametrize("h, chunk, index", [
    (transposition(6, 0, 1), 24, 30),  # blocks inside one chunk
    (transposition(6, 1, 2), 6, 20),  # whole chunks of a longer period
    (transposition(6, 4, 5), 1, 2),  # whole periods of a local gate
])
def test_each_chunk_gather_is_bit_identical_to_take(monkeypatch, h, chunk, index):
    # degree 6 in 30 blocks of 24 (GATE_BLOCK 50): each case of the blocked
    # gather lists the ranks of the whole table `Action.take` builds, and
    # its gate is the reference's through that table, bit for bit
    monkeypatch.setattr(feasible, "GATE_BLOCK", 50)
    n = 6
    size, block = factorial(n), feasible._block(factorial(n))
    assert block == 24
    action = involution_action(h)
    assert (action.chunk, len(action.index)) == (chunk, index)
    ranks = np.arange(size)
    table = action.take(ranks)
    assert np.array_equal(table, reference_table(h))
    gathered = [feasible._gathered(ranks, action, i, i + block) for i in range(0, size, block)]
    assert np.array_equal(np.concatenate(gathered), table)
    state = phased_uniform_state(n)
    want = bits(reference_gate(state, table, 0.9))
    assert bits(apply_involution_exp(state, action, 0.9)) == want
    assert bits(apply_involution_exp(state, action, 0.9, out=spare_like(state))) == want


def test_default_block_gates_on_degree_8_are_bit_identical():
    # 40320 amplitudes in two blocks of 20160: each lies inside a period
    # of 8!, and holds whole periods of 7! and less; references from
    # whole rows
    state = phased_uniform_state(8)
    for h, action in straddling_cases(8):
        assert bits(apply_involution_exp(state, action, 0.9)) == bits(
            reference_gate(state, reference_table(h), 0.9)), h


def test_straddling_gradient_is_bit_identical(monkeypatch):
    # the sweep's overlaps are summed over the same blocks whether the
    # actions hold chunk ranks or flat tables (one period of n! ranks in
    # chunks of one rank)
    n = 6
    vec = TourCost(random_instance(n + 1, seed=6), reduced=True).vector()
    seq = bubble_sequence(n)
    x = np.random.default_rng(6).uniform(0, np.pi, len(seq))
    monkeypatch.setattr(feasible, "GATE_BLOCK", 100)
    got = expectation_gradient(uniform_feasible_state(n), circuit_steps(seq), x, vec)
    flat = [(Action.of(n, reference_table(h)), k) for k, h in enumerate(seq.elements)]
    assert all(len(a.index) == factorial(n) for a, _ in flat)
    want = expectation_gradient(uniform_feasible_state(n), flat, x, vec)
    assert got.tobytes() == want.tobytes()


def test_default_blocks_lie_in_one_period_at_degree_9():
    # an element first moving position 1 has a period of 8! = 40320 ranks,
    # which holds two whole blocks of 20160: its index is the K chunk ranks
    # alone (56 chunks of 6! for (1 2), 8! chunks of one rank for (1 8)),
    # and each block gathers its whole chunks from the one period it lies
    # in; references from whole rows
    n = 9
    state = phased_uniform_state(n)
    assert 2 * feasible._block(factorial(n)) == factorial(8)
    for h, chunk in ((transposition(n, 1, 2), factorial(6)), (transposition(n, 1, 8), 1)):
        action = Action.of(n, *right_action(h))
        assert (action.period, action.chunk) == (factorial(8), chunk)
        assert len(action.index) == factorial(8) // chunk and action.index.flags.writeable
        assert bits(apply_involution_exp(state, action, 0.9)) == bits(
            reference_gate(state, reference_table(h), 0.9))


def period_with_p(h):
    """The right-action period of h with its last entry set to P."""
    bad = period(h)
    bad[-1] = len(bad)
    return bad


def mid_with_k(h):
    """The chunk ranks of h's right action, the last set to K, and the chunk."""
    mid, chunk = right_action(h)
    mid = mid.copy()
    mid[-1] = len(mid)
    return mid, chunk


@pytest.mark.parametrize("block", [7, 16384])
def test_period_entry_equal_to_p_raises(monkeypatch, block):
    # degree 5, (0 1): a period of 120 ranks, the whole state; (1 2): 24.
    # Each is refused as it is built, shorter or longer than the block
    monkeypatch.setattr(feasible, "GATE_BLOCK", block)
    for h in (transposition(5, 0, 1), transposition(5, 1, 2)):
        with pytest.raises(IndexError, match="outside 0.."):
            Action.of(5, period_with_p(h))
        with pytest.raises(IndexError, match="outside 0.."):
            Action.of(5, *mid_with_k(h))
    # blocks of 24 (GATE_BLOCK 100) inside periods of 120 at degree 6: the
    # good index is the 20 chunk ranks alone, and its gate is the
    # reference's bit for bit
    monkeypatch.setattr(feasible, "GATE_BLOCK", 100)
    h = transposition(6, 1, 2)
    with pytest.raises(IndexError, match="outside 0.."):
        Action.of(6, period_with_p(h))
    with pytest.raises(IndexError, match="outside 0.."):
        Action.of(6, *mid_with_k(h))
    good = Action.of(6, *right_action(h))
    assert (good.period, good.chunk, len(good.index)) == (120, 6, 20)
    state = phased_uniform_state(6)
    assert bits(apply_involution_exp(state, good, 0.3)) == bits(
        reference_gate(state, reference_table(h), 0.3))


def test_sweep_undo_refuses_a_period_entry_equal_to_p(monkeypatch):
    # a bad step for the sweep to undo cannot be built: its period of 24
    # ranks, or its 12 chunk ranks, are refused at blocks of 7, before any
    # state is written
    monkeypatch.setattr(feasible, "GATE_BLOCK", 7)
    n = 5
    element = bubble_sequence(n).elements[1]
    assert len(period(element)) == 24
    with pytest.raises(IndexError, match="outside 0.."):
        Action.of(n, period_with_p(element))
    with pytest.raises(IndexError, match="outside 0.."):
        Action.of(n, *mid_with_k(element))


def test_an_action_of_another_degree_is_refused():
    # a degree-4 action whose period (2 ranks) divides 5! = 120
    n = 5
    wrong = involution_action(transposition(n - 1, n - 3, n - 2))
    assert wrong.period == 2 and factorial(n) % wrong.period == 0
    state = uniform_feasible_state(n)
    vec = TourCost(random_instance(n + 1, seed=1), reduced=True).vector()
    steps = circuit_steps(bubble_sequence(n))
    steps[1] = (wrong, steps[1][1])
    x = np.full(len(steps), 0.4)
    message = "^action of degree 4 for a state of degree 5$"
    with pytest.raises(ValueError, match=message):
        apply_involution_exp(state, wrong, 0.3)
    with pytest.raises(ValueError, match=message):
        run_steps(uniform_feasible_state(n), steps, x)
    with pytest.raises(ValueError, match=message):
        expectation_gradient(uniform_feasible_state(n), steps, x, vec)
    with pytest.raises(ValueError, match=message):
        Circuit(uniform_feasible_state(n), steps, vec)


def test_a_blocked_run_refuses_a_step_that_does_not_fit(monkeypatch, runs_blocked):
    # blocks of 6 at degree 5: with a degree-4 action (period 2) or a
    # short cost vector as step 1, steps 1..3 form a run; the list is
    # refused before the block loop runs, and the state is left unwritten
    monkeypatch.setattr(feasible, "GATE_BLOCK", 7)
    n = 5
    steps = circuit_steps(bubble_sequence(n))
    x = np.full(len(steps), 0.4)
    for bad, message in ((involution_action(transposition(n - 1, n - 3, n - 2)),
                          "^action of degree 4 for a state of degree 5$"),
                         (np.ones(24), "^generator has 24 entries for 120 amplitudes$")):
        steps[1] = (bad, 1)
        assert [feasible._local(g, feasible._block(factorial(n))) for g, _ in steps[:5]] == [
            False, True, True, True, False]
        state = uniform_feasible_state(n)
        with pytest.raises(ValueError, match=message):
            run_steps(state, steps, x)
        assert bits(state) == bits(uniform_feasible_state(n))
    assert runs_blocked == []


def test_a_period_must_divide_the_state():
    with pytest.raises(ValueError, match="does not divide"):
        Action.of(4, np.arange(5))
    with pytest.raises(ValueError, match="does not divide"):
        Action.of(4, np.arange(0))


# every `GATE_BLOCK` the tests and checks set: check_parallel_steps sets
# 6!/9 and 7!/9, and whole states of 5! and 6!
GRID_BOUNDS = [2, 7, 40, 50, 80, 100, 120, 560, 720, 16384, 20160]


@pytest.mark.parametrize("bound", GRID_BOUNDS)
def test_no_block_straddles_a_period(monkeypatch, bound):
    # every period (n-s)! divides the block or is a multiple of it, and a
    # block shorter than the state is even and divides it, so every block
    # is whole
    monkeypatch.setattr(feasible, "GATE_BLOCK", bound)
    for n in range(2, 12):
        size = factorial(n)
        block = feasible._block(size)
        if size <= bound:
            assert block == size
        else:
            assert block <= bound and block % 2 == 0 and size % block == 0, n
        for k in range(1, n + 1):
            assert block % factorial(k) == 0 or factorial(k) % block == 0, (n, k)


def test_a_period_or_chunk_that_is_not_a_factorial_is_refused(monkeypatch):
    # 128 ranks divide 9! and 4 ranks divide 4!, but neither is a
    # factorial, and a period of 5! may not move chunks of 4 ranks; each
    # is refused with the same message on a one-block state, on the
    # default grid and on blocks of 6
    message = "^a {} of {} ranks is not a factorial$"
    for block in (20160, 7):
        monkeypatch.setattr(feasible, "GATE_BLOCK", block)
        with pytest.raises(ValueError, match=message.format("period", 128)):
            Action.of(9, np.arange(128))
        with pytest.raises(ValueError, match=message.format("period", 4)):
            Action.of(4, np.arange(4))
        with pytest.raises(ValueError, match=message.format("chunk", 4)):
            Action.of(5, np.arange(30), 4)
        assert Action.of(5, np.arange(20), 6).index.tolist() == list(range(20))


def test_circuit_tables_hold_chunk_ranks():
    # at degree 8 a binary-insertion circuit's 17 actions hold 0.40 MB
    # (1.25 MB as periods), against 5.5 MB for one flat 8-B table per
    # element: each index is its
    # K = P/B chunk ranks alone, writeable for `np.take`, and no action
    # holds a period of P ranks unless its chunk is one rank
    steps = circuit_steps(binary_insertion_sequence(8))
    held = sum(a.nbytes for a, _ in steps)
    assert held == sum(a.index.nbytes for a, _ in steps)
    assert held < 0.4e6 and held < len(steps) * factorial(8) * 8
    for a, _ in steps:
        assert a.index.dtype == np.int64 and a.index.flags.writeable
        assert len(a.index) * a.chunk == a.period
    assert {a.chunk for a, _ in steps} > {1}


def test_blocked_actions_hold_no_whole_table():
    # at degree 8 (two default blocks) a binary-insertion circuit's run,
    # its gradient and `Action.take` derive no whole table: each action
    # holds its K chunk ranks alone, as it was built (K = n! only for an
    # element that moves positions 0 and n-1)
    n = 8
    seq = binary_insertion_sequence(n)
    steps = circuit_steps(seq)
    vec = TourCost(random_instance(n + 1, seed=8), reduced=True).vector()
    x = np.random.default_rng(8).uniform(0, np.pi, len(steps))
    run_steps(phased_uniform_state(n), steps, x)
    expectation_gradient(phased_uniform_state(n), steps, x, vec)
    for h, (a, _) in zip(seq.elements, steps):
        assert np.array_equal(images(a), reference_table(h))
        assert set(vars(a)) == {"n", "period", "chunk", "index"}
        assert a.nbytes == 8 * len(a.index) == 8 * a.period // a.chunk
