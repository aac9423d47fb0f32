from math import ceil, factorial, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcirc.limits import TooLarge
from permcirc.perms import all_perms, compose, identity, is_involution, transposition
from permcirc.sequences import (
    BINARY_INSERTION,
    BUBBLE,
    GeneratingSequence,
    NotDecomposable,
    binary_insertion_sequence,
    bubble_sequence,
    check_sequence,
    decompose,
    expected_length,
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
    bubble = bubble_sequence(n)
    binary = binary_insertion_sequence(n)
    assert len(bubble) == n * (n - 1) // 2 == expected_length(BUBBLE, n)
    assert len(binary) == sum(ceil(log2(i)) for i in range(2, n + 1))
    assert len(binary) == expected_length(BINARY_INSERTION, n)
    for h in bubble.elements + binary.elements:
        assert is_involution(h)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("build", [bubble_sequence, binary_insertion_sequence])
def test_generating_property(n, build):
    report = verify_generating(build(n))
    assert report.generating
    assert report.reached == factorial(n)
    assert report.unreachable == ()


def test_non_generating_sequence_reported():
    seq = GeneratingSequence(3, (transposition(3, 0, 1),))
    report = verify_generating(seq)
    assert not report.generating
    assert len(report.unreachable) == 4


def test_verify_refuses_long_sequences():
    with pytest.raises(TooLarge, match="^generating check of 28 elements needs 268,435,456 products; "
                                       "cap is 24 elements$"):
        verify_generating(bubble_sequence(8))


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
    seq = build(n)
    for g in all_perms(n):
        assert recompose(seq, decompose(seq, g)) == g


@pytest.mark.parametrize("n", range(6, 10))
def test_decompose_roundtrip_random(n):
    rng = np.random.default_rng(n)
    seqs = (bubble_sequence(n), binary_insertion_sequence(n))
    for _ in range(1000):
        g = tuple(rng.permutation(n).tolist())
        for seq in seqs:
            assert recompose(seq, decompose(seq, g)) == g


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
    seq = GeneratingSequence(3, (transposition(3, 0, 1),), kind="custom")
    assert recompose(seq, decompose(seq, transposition(3, 0, 1))) == transposition(3, 0, 1)
    with pytest.raises(NotDecomposable):
        decompose(seq, transposition(3, 1, 2))


def test_min_adjacency_length():
    assert min_adjacency_length(2) == 1
    assert min_adjacency_length(3) == 3
    assert min_adjacency_length(4) == 6
    with pytest.raises(TooLarge, match="cap is degree 5$"):
        min_adjacency_length(6)


def test_check_sequence_flags_tampering():
    seq = binary_insertion_sequence(4)
    assert check_sequence(seq, exhaustive=True) == []
    tampered = GeneratingSequence(
        4, seq.elements[:-1] + ((1, 2, 0, 3),), kind=BINARY_INSERTION
    )
    problems = check_sequence(tampered)
    assert any("not an involution" in p for p in problems)
    short = GeneratingSequence(4, seq.elements[:-1], kind=BINARY_INSERTION)
    assert any("length" in p for p in check_sequence(short))
    weak = GeneratingSequence(3, (transposition(3, 0, 1),) * 3, kind="custom")
    assert any("not generating" in p for p in check_sequence(weak, exhaustive=True))


@settings(max_examples=100, deadline=None)
@given(st.permutations(tuple(range(7))))
def test_decompose_roundtrip_property(g):
    g = tuple(g)
    for build in (bubble_sequence, binary_insertion_sequence):
        seq = build(7)
        assert recompose(seq, decompose(seq, g)) == g
