"""Permutations of range(n) in one-line notation, with composition,
inversion counting, and Lehmer-code ranking.

A permutation is a plain tuple ``p`` with ``p[i]`` the image of ``i``,
0-based internally.  The text format (`format_perm`/`parse_perm`) is
1-based, e.g. ``"2,3,1"`` for ``(1, 2, 0)``.

Ranking uses the factorial number system: the rank of a permutation is
its position in lexicographic order, so ``itertools.permutations`` and
`perm_table` enumerate in rank order.  Digit i of the rank (weight
(n-1-i)!) counts the values after position i that are smaller than
p[i], so it is fixed by the values at positions 0..i: the first m digits
are the rank of the m-entry prefix among the arrangements of m out of n
values.  `rank_rows` ranks such prefixes in bulk.
"""

from functools import lru_cache
from itertools import permutations as _permutations
from math import factorial

import numpy as np

from . import limits

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    """The identity permutation of degree n."""
    return tuple(range(n))


def is_perm(p) -> bool:
    """True iff p is a tuple containing each of 0..n-1 exactly once."""
    return isinstance(p, tuple) and sorted(p) == list(range(len(p)))


def check_perm(p) -> Perm:
    if not is_perm(p):
        raise ValueError(f"not a permutation in one-line notation: {p!r}")
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """(p . q)(i) = p(q(i)); q is applied first.

    >>> compose((1, 2, 0), (2, 0, 1))
    (0, 1, 2)
    """
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v] for v in q)


def inverse(p: Perm) -> Perm:
    """The permutation q with compose(p, q) = identity.

    >>> inverse((1, 2, 0))
    (2, 0, 1)
    """
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def transposition(n: int, i: int, j: int) -> Perm:
    """The involution exchanging i and j (0-based), fixing all else.

    >>> transposition(3, 0, 1)
    (1, 0, 2)
    """
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    im = list(range(n))
    im[i], im[j] = j, i
    return tuple(im)


def is_involution(p: Perm) -> bool:
    """True iff p composed with itself is the identity."""
    return all(p[v] == i for i, v in enumerate(p))


def inversion_number(p: Perm) -> int:
    """Number of pairs i < j with p(i) > p(j); 0 for the identity,
    n(n-1)/2 for the reversal.
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def rank(p: Perm) -> int:
    """Lexicographic (Lehmer) rank of p among all permutations of its degree."""
    n = len(p)
    limits.check("permutations", n)
    r = 0
    for i in range(n):
        smaller_later = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        r += smaller_later * factorial(n - 1 - i)
    return r


def unrank(r: int, n: int) -> Perm:
    """Inverse of `rank`: the permutation of degree n at lexicographic rank r."""
    limits.check("permutations", n)
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for degree {n}")
    avail = list(range(n))
    out = []
    for i in range(n):
        f = factorial(n - 1 - i)
        digit, r = divmod(r, f)
        out.append(avail.pop(digit))
    return tuple(out)


def all_perms(n: int):
    """All permutations of degree n in rank (lexicographic) order."""
    return _permutations(range(n))


@lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """(n!, n) int8 array of all degree-n permutations, row k at rank k.

    Built by prefix recursion: the degree-k table is k blocks, block v
    being first value v followed by the degree-(k-1) table with every
    value >= v shifted up by one, which keeps lexicographic order.
    Shared basis enumeration for the feasible-subspace simulator; rows
    are read-only.
    """
    limits.check("permutations", n)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    table = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        first = np.arange(k, dtype=np.int8)[:, None, None]
        blocks = np.empty((k, table.shape[0], k), dtype=np.int8)
        blocks[:, :, :1] = first
        np.add(table, table >= first, out=blocks[:, :, 1:])
        table = blocks.reshape(-1, k)
    table.setflags(write=False)
    return table


def rank_rows(rows: np.ndarray, n: int | None = None) -> np.ndarray:
    """Vectorised rank of the (k, m) rows, each the first m entries of a
    degree-n permutation (n defaults to m, ranking whole permutations).

    The result is each row's position in
    ``itertools.permutations(range(n), m)``: the Lehmer digit of column i
    is its value minus the number of earlier columns holding a smaller
    value, a digit in 0..n-1-i, and Horner's rule combines the digits in
    the mixed radix n, n-1, ..., n-m+1.
    """
    rows = np.asarray(rows)
    m = rows.shape[1]
    n = m if n is None else n
    limits.check("permutations", n)
    if m > n:
        raise ValueError(f"{m}-entry rows are not prefixes of degree-{n} permutations")
    cols = np.ascontiguousarray(rows.T, dtype=np.int8)
    out = np.zeros(rows.shape[0], dtype=np.int64)
    less = np.empty(rows.shape[0], dtype=bool)
    for i in range(m):
        digit = cols[i].copy()
        for j in range(i):
            np.less(cols[j], cols[i], out=less)
            digit -= less.view(np.int8)
        out *= n - i
        out += digit
    return out


def format_perm(p: Perm) -> str:
    """1-based comma-separated one-line notation, e.g. "2,3,1"."""
    return ",".join(str(v + 1) for v in p)


def parse_perm(text: str) -> Perm:
    """Parse 1-based comma-separated one-line notation."""
    try:
        values = tuple(int(tok) - 1 for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed permutation {text!r}") from None
    return check_perm(values)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
