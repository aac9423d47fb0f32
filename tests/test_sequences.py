import re
import tracemalloc
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcirc.checks import check_decompose_roundtrip, check_generating, check_sequence_shapes
from permcirc.feasible import fidelity, reachability_params, run_exhaustive_circuit
from permcirc.limits import TooLarge
from permcirc.perms import all_perms, compose, identity, transposition
from permcirc.sequences import (
    BUBBLE,
    CONSTRUCTIONS,
    CUSTOM,
    GeneratingSequence,
    NotDecomposable,
    binary_insertion_sequence,
    bubble_sequence,
    check_sequence,
    decompose,
    min_adjacency_length,
    recompose,
    verify_generating,
)


def test_bubble_small_cases():
    assert bubble_sequence(2).elements == (transposition(2, 0, 1),)
    assert len(bubble_sequence(8)) == 28
    seq3 = bubble_sequence(3)
    assert len(seq3) == 3
    assert set(seq3.elements) <= {transposition(3, 0, 1), transposition(3, 1, 2)}
    assert verify_generating(seq3).generating


def test_binary_insertion_small_cases():
    assert binary_insertion_sequence(2).elements == (transposition(2, 0, 1),)
    # embedded degree-2 sequence, then the two insertion blocks of S_3
    assert binary_insertion_sequence(3).elements == (
        transposition(3, 1, 2),
        transposition(3, 0, 1),
        transposition(3, 0, 2),
    )
    assert len(binary_insertion_sequence(8)) == 17


@pytest.mark.parametrize("n", range(1, 13))
def test_lengths_and_involutions(n):
    ok, detail = check_sequence_shapes((n,))
    assert ok, detail


def assert_sweep_matches_masks(*seqs):
    ok, detail = check_generating((), sequences=seqs)
    assert ok, detail


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("build", [bubble_sequence, binary_insertion_sequence])
def test_generating_property(n, build):
    # bubble has 15 elements at n = 6, so 32 768 masks are recomposed
    ok, detail = check_generating((n,), builds=(build,), exhaustive=(n,))
    assert ok, detail


def test_non_generating_sequence_reported():
    seq = GeneratingSequence(3, (transposition(3, 0, 1),))
    report = verify_generating(seq)
    assert not report.generating
    assert len(report.unreachable) == 4
    assert_sweep_matches_masks(seq)


def test_verify_certifies_the_paper_size():
    # the 9-city protocol runs at effective degree 8: 28 and 17 elements
    for n, order in ((8, 40320), (9, 362880)):
        for build in (bubble_sequence, binary_insertion_sequence):
            report = verify_generating(build(n))
            assert report.generating
            assert report.reached == report.group_order == order
            assert report.unreachable == ()


def test_verify_refuses_long_sequences():
    # the degree-11 bubble sequence has 55 elements; the sweep refuses its degree
    seq = bubble_sequence(11)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="^state of degree 11 needs 0.6 GiB a copy; "
                                           "cap is degree 10$"):
            verify_generating(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_decompose_identity_is_zero_mask():
    for build in (bubble_sequence, binary_insertion_sequence):
        seq = build(5)
        assert decompose(seq, identity(5)) == (0,) * len(seq)


def test_decompose_top_block_is_binary_of_first_image():
    # the last ceil(log2 n) bits spell the target's first image, LSB first
    for n in (4, 6, 8):
        seq = binary_insertion_sequence(n)
        nbits = ceil(log2(n))
        for v in range(n):
            g = identity(n)
            # build some permutation with g(0) = v
            if v:
                g = compose(transposition(n, 0, v), g)
            bits = decompose(seq, g)
            top = bits[len(seq) - nbits:]
            assert top == tuple((v >> k) & 1 for k in range(nbits))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("build", [bubble_sequence, binary_insertion_sequence])
def test_decompose_roundtrip_exhaustive(n, build):
    ok, detail = check_decompose_roundtrip(exhaustive=(n,), sampled=(), builds=(build,))
    assert ok, detail


@pytest.mark.parametrize("n", range(6, 10))
def test_decompose_roundtrip_random(n):
    ok, detail = check_decompose_roundtrip(exhaustive=(), sampled=(n,), samples=1000, seed=n)
    assert ok, detail


def test_recompose_cases():
    seq = bubble_sequence(4)
    assert recompose(seq, (0,) * len(seq)) == identity(4)
    for i, h in enumerate(seq.elements):
        mask = [0] * len(seq)
        mask[i] = 1
        assert recompose(seq, mask) == h
    seq3 = bubble_sequence(3)
    h1, h2, h3 = seq3.elements
    assert recompose(seq3, (1, 1, 1)) == compose(h3, compose(h2, h1))


def test_recompose_length_mismatch():
    with pytest.raises(ValueError):
        recompose(bubble_sequence(3), (1, 0))


def test_custom_decompose_and_not_decomposable():
    # a stub of the bubble sequence is not generating for S_3
    seq = GeneratingSequence(3, (transposition(3, 0, 1),))
    assert recompose(seq, decompose(seq, transposition(3, 0, 1))) == transposition(3, 0, 1)
    with pytest.raises(NotDecomposable):
        decompose(seq, transposition(3, 1, 2))


def test_custom_decompose_divides_by_the_inverse():
    # a 3-cycle is not an involution, so walking back by h instead of
    # h^-1 would give masks that do not recompose
    cycle = (1, 2, 0)
    seq = GeneratingSequence(3, (cycle, transposition(3, 0, 1), cycle))
    reached = set()
    for g in all_perms(3):
        try:
            mask = decompose(seq, g)
        except NotDecomposable:
            continue
        assert recompose(seq, mask) == g
        reached.add(g)
    assert (2, 1, 0) in reached
    assert len(reached) == verify_generating(seq).reached
    # these products are not closed under inversion, so a sweep that
    # tracked products where it tracks their inverses would disagree
    lopsided = GeneratingSequence(4, ((1, 2, 3, 0), (1, 0, 2, 3), (0, 2, 3, 1)))
    assert_sweep_matches_masks(seq, lopsided)


@pytest.mark.parametrize("seq, message", [
    (GeneratingSequence(3, ((0, 0, 1),)), "element 1 is not a permutation of degree 3: (0, 0, 1)"),
    (GeneratingSequence(3, (transposition(3, 0, 1), (1, 0))),
     "element 2 is not a permutation of degree 3: (1, 0)"),
    # the last element of a degree-10 sequence is refused before the sweep
    # allocates its 14.5-MB array or any table
    (GeneratingSequence(10, (transposition(10, 0, 1), (0,) * 10)),
     "element 2 is not a permutation of degree 10: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)"),
], ids=["repeated value", "short element", "degree 10"])
@pytest.mark.parametrize("call", [verify_generating, lambda seq: decompose(seq, identity(seq.n))],
                         ids=["verify", "decompose"])
def test_sweep_refuses_elements_that_are_not_permutations(seq, message, call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_negative_degree_is_refused():
    with pytest.raises(ValueError, match="^degree must be >= 0, got -1$"):
        GeneratingSequence(-1, ())


def test_min_adjacency_length():
    # the values the iterative-deepening search gave for n = 0..5, then
    # the inversion bound where no search could reach
    assert [min_adjacency_length(n) for n in range(6)] == [0, 0, 1, 3, 6, 10]
    assert min_adjacency_length(6) == 15
    assert min_adjacency_length(12) == 66
    for n in range(1, 9):
        assert min_adjacency_length(n) == len(bubble_sequence(n))
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        min_adjacency_length(-1)


def test_check_sequence_flags_tampering():
    seq = binary_insertion_sequence(4)
    assert check_sequence(seq) == []
    assert verify_generating(seq)
    tampered = GeneratingSequence(4, seq.elements[:-1] + ((1, 2, 0, 3),))
    problems = check_sequence(tampered)
    assert any("not an involution" in p for p in problems)
    assert tampered.kind == CUSTOM
    # a shortened copy is no longer the construction, only a custom sequence
    short = GeneratingSequence(4, seq.elements[:-1])
    assert short.kind == CUSTOM and check_sequence(short) == []
    assert not verify_generating(short)
    weak = GeneratingSequence(3, (transposition(3, 0, 1),) * 3)
    assert not verify_generating(weak)
    assert_sweep_matches_masks(seq, tampered, short, weak)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("side", ["right", "left"])
def test_kind_is_read_from_the_elements(n, side):
    for kind, build in CONSTRUCTIONS.items():
        seq = build(n)
        copy = GeneratingSequence(n, seq.elements, action_side=side)
        # at degrees 1 and 2 both constructions are the same elements
        assert copy.kind == (kind if n > 2 else BUBBLE)
        assert seq.kind == copy.kind
        # the degree-3 bubble sequence is a palindrome
        if seq.elements[::-1] != seq.elements:
            assert GeneratingSequence(n, seq.elements[::-1], action_side=side).kind == CUSTOM
        if seq.elements:
            assert GeneratingSequence(n, seq.elements[1:], action_side=side).kind == CUSTOM


def test_kind_is_not_declared():
    with pytest.raises(TypeError):
        GeneratingSequence(2, ((1, 0),), kind=BUBBLE)
    assert GeneratingSequence(0, ()).kind == CUSTOM
    assert GeneratingSequence(3, (identity(3),) * 3).kind == CUSTOM


def test_reversed_bubble_sequence_reaches_its_target():
    # the reversed degree-4 bubble sequence is generating, but the bubble
    # peel's masks do not recompose over it; read as custom, the sweep's do
    seq = GeneratingSequence(4, bubble_sequence(4).elements[::-1])
    assert seq.kind == CUSTOM and verify_generating(seq)
    assert_sweep_matches_masks(seq)
    for target in all_perms(4):
        thetas = reachability_params(seq, identity(4), target)
        state = run_exhaustive_circuit(seq, thetas, identity(4))
        assert fidelity(state, target) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.permutations(tuple(range(7))))
def test_decompose_roundtrip_property(g):
    g = tuple(g)
    for build in (bubble_sequence, binary_insertion_sequence):
        seq = build(7)
        assert recompose(seq, decompose(seq, g)) == g
