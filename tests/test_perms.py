import doctest
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permcirc.perms as perms
from permcirc.limits import TooLarge
from permcirc.perms import (
    all_perms,
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
    for n in range(1, 5):
        for p in all_perms(n):
            assert unrank(rank(p), n) == p


def test_rank_injective_up_to_6():
    for n in range(1, 7):
        seen = {rank(p) for p in all_perms(n)}
        assert seen == set(range(factorial(n)))


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
    for n in range(2, 6):
        for p in all_perms(n):
            base = inversion_number(p)
            for j in range(n - 1):
                stepped = inversion_number(compose(p, transposition(n, j, j + 1)))
                assert abs(stepped - base) == 1


def _mult_table(n):
    table = perm_table(n)
    return np.stack([rank_rows(table[a][table]) for a in range(factorial(n))])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_associativity_exhaustive(n):
    m = _mult_table(n)
    assert np.array_equal(m[m], m[:, m])


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
