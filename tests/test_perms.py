import doctest
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permcirc.perms as perms
from permcirc.checks import check_perm_core
from permcirc.limits import TooLarge
from permcirc.perms import (
    compose,
    format_perm,
    identity,
    inverse,
    inversion_number,
    parse_perm,
    perm_table,
    rank,
    rank_rows,
    transposition,
    unrank,
)


def test_docstrings():
    failures, _ = doctest.testmod(perms)
    assert failures == 0


def test_compose_identity():
    p = (2, 0, 1)
    assert compose(identity(3), p) == p
    assert compose(p, identity(3)) == p


def test_transpositions_are_involutions():
    t = transposition(4, 0, 1)
    assert compose(t, t) == identity(4)
    t = transposition(5, 0, 2)
    assert compose(t, t) == identity(5)


def test_compose_mutual_inverses():
    # 1-based (2,3,1) and (3,1,2) are mutual inverses
    assert compose((1, 2, 0), (2, 0, 1)) == identity(3)
    assert compose((2, 0, 1), (1, 2, 0)) == identity(3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_inverse():
    assert inverse(identity(4)) == identity(4)
    t = transposition(4, 1, 3)
    assert inverse(t) == t
    assert inverse((1, 2, 0)) == (2, 0, 1)


def test_transposition_values():
    assert transposition(3, 0, 1) == (1, 0, 2)
    assert transposition(4, 1, 3) == (0, 3, 2, 1)
    with pytest.raises(ValueError):
        transposition(3, 1, 1)
    with pytest.raises(ValueError):
        transposition(3, 0, 3)


def test_rank_identity_and_reversal():
    for n in (1, 3, 5):
        assert rank(identity(n)) == 0
        assert unrank(factorial(n) - 1, n) == tuple(reversed(range(n)))


def test_rank_roundtrip_exhaustive():
    ok, detail = check_perm_core(associative=(), ranked=range(1, 5), stepped=())
    assert ok, detail


def test_rank_injective_up_to_6():
    ok, detail = check_perm_core(associative=(), ranked=range(1, 7), stepped=())
    assert ok, detail


def test_rank_degree_cap():
    with pytest.raises(TooLarge, match="cap is degree 11$"):
        unrank(0, 12)
    with pytest.raises(TooLarge, match="cap is degree 11$"):
        rank(identity(12))
    with pytest.raises(ValueError):
        unrank(factorial(4), 4)


def test_inversion_number():
    assert inversion_number(identity(5)) == 0
    assert inversion_number((3, 2, 1, 0)) == 6
    assert inversion_number((1, 0, 2)) == 1


def test_adjacent_swap_changes_inversions_by_one():
    ok, detail = check_perm_core(associative=(), ranked=(), stepped=range(2, 6))
    assert ok, detail


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_associativity_exhaustive(n):
    ok, detail = check_perm_core(associative=(n,), ranked=(), stepped=())
    assert ok, detail


def test_perm_table_matches_rank_order():
    for n in (1, 3, 4):
        table = perm_table(n)
        for r in range(factorial(n)):
            assert tuple(table[r]) == unrank(r, n)


def test_text_format():
    assert format_perm((1, 2, 0)) == "2,3,1"
    assert parse_perm("2,3,1") == (1, 2, 0)
    with pytest.raises(ValueError):
        parse_perm("2,3,3")
    with pytest.raises(ValueError):
        parse_perm("a,b")
    # refusals quote the 1-based text and the values it should hold
    for text in ("1,2,3,5", "0,1,2,3", "2,3,3,1"):
        with pytest.raises(ValueError) as refused:
            parse_perm(text)
        assert str(refused.value) == f"not a permutation of 1..4 in one-line notation: {text!r}"


@settings(max_examples=200)
@given(st.permutations(tuple(range(6))))
def test_inverse_roundtrip_property(p):
    p = tuple(p)
    assert compose(p, inverse(p)) == identity(6)
    assert inverse(inverse(p)) == p


@settings(max_examples=200)
@given(st.permutations(tuple(range(7))), st.permutations(tuple(range(7))))
def test_rank_rows_matches_scalar_rank(p, q):
    p, q = tuple(p), tuple(q)
    rows = np.array([p, q], dtype=np.int8)
    assert list(rank_rows(rows)) == [rank(p), rank(q)]


def test_rank_rows_matches_rank_at_degree_11():
    # the largest degree the "permutations" cap allows: the ranks reach
    # 11! - 1 and are summed in int32, then returned as int64; the rank of
    # an m-entry prefix is the whole rank's first m digits
    rng = np.random.default_rng(11)
    tours = [tuple(rng.permutation(11).tolist()) for _ in range(200)]
    tours += [identity(11), tuple(range(10, -1, -1))]
    rows = np.array(tours, dtype=np.int8)
    want = np.array([rank(p) for p in tours])
    got = rank_rows(rows)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert got[-1] == factorial(11) - 1
    for m in (1, 5, 10):
        assert np.array_equal(rank_rows(rows[:, :m], 11), want // factorial(11 - m))
