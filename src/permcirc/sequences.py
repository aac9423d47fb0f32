"""Generating sequences of involutions for the symmetric group.

A sequence (h_1, ..., h_d) is *generating* when every g in S_n equals the
ordered product with each element either included or skipped, h_1 applied
first.  Two constructions are provided:

* `bubble_sequence`: adjacency transpositions in bubble-sort order, one
  pass of length n-1 down to a pass of length 1; d = n(n-1)/2.
* `binary_insertion_sequence`: built inductively, appending for each new
  degree k the block involutions that move position 1 by powers of two;
  d = sum of ceil(log2(k)) for k = 2..n.

A sequence's `kind` is read from its elements, "custom" unless they are
exactly one construction.  `decompose` finds a bit mask whose `recompose`
product equals a given permutation; `verify_generating` certifies a
sequence by sweeping its products layer by layer over Lehmer ranks, with
the right-action chunk maps the gates use, so that one array records the
first layer reaching each inverse product: all 2^d masks in d gathers of
n! entries, which a custom `decompose` walks back.
"""

from dataclasses import dataclass
from functools import cached_property
from math import ceil, factorial, log2

import numpy as np

from . import limits
from .perms import (
    Perm,
    check_perm,
    compose,
    identity,
    inverse,
    is_involution,
    is_perm,
    rank,
    right_action,
    take_chunks,
    transposition,
    unrank,
)

BUBBLE = "bubble"
BINARY_INSERTION = "binary-insertion"
CUSTOM = "custom"


class NotDecomposable(Exception):
    """The target permutation is not a product of the sequence; the
    sequence is not generating."""


@dataclass(frozen=True)
class GeneratingSequence:
    """Ordered involutions h_1..h_d with a declared self-action side.

    ``action_side`` records how the elements act on tour permutations:
    "right" (slot semantics: sigma -> sigma . h, the subregister-swap
    action) or "left" (sigma -> h . sigma).  Both self-actions are
    transitive, so reachability is unaffected by the choice.
    """

    n: int
    elements: tuple[Perm, ...]
    action_side: str = "right"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree must be >= 0, got {self.n}")
        if self.action_side not in ("left", "right"):
            raise ValueError(f"bad action_side {self.action_side!r}")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def kind(self) -> str:
        """The `CONSTRUCTIONS` key whose construction at this degree is exactly
        these elements, else "custom"; "bubble" at degrees 1 and 2, where
        the two constructions coincide."""
        for kind, build in CONSTRUCTIONS.items():
            if self.n >= 1 and build(self.n).elements == self.elements:
                return kind
        return CUSTOM


def bubble_sequence(n: int) -> GeneratingSequence:
    """Adjacency transpositions tau_j = (j, j+1) in bubble-sort order.

    Passes of decreasing length: tau_0..tau_{n-2}, then tau_0..tau_{n-3},
    down to tau_0.  Each pass is one block of leading adjacency
    transpositions; applying the longest pass first is what makes the
    sequence generating, since the ordered products are exactly the runs
    of a bubble sort, which sorts every input.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    elements = tuple(
        transposition(n, j, j + 1)
        for length in range(n - 1, 0, -1)
        for j in range(length)
    )
    return GeneratingSequence(n, elements)


def _embed(p: Perm) -> Perm:
    """Index-increment embedding S_{k-1} -> S_k: fix 0, shift the rest up."""
    return (0,) + tuple(v + 1 for v in p)


def _insertion_block(k: int, level: int) -> Perm:
    """The involution of S_k swapping j <-> j + 2^(level-1) for all
    j < min(k - 2^(level-1), 2^(level-1)); disjoint transpositions."""
    h = 2 ** (level - 1)
    im = list(range(k))
    for j in range(min(k - h, h)):
        im[j], im[j + h] = im[j + h], im[j]
    return tuple(im)


def binary_insertion_sequence(n: int) -> GeneratingSequence:
    """The O(n log n) generating sequence grown one degree at a time.

    Stage k embeds the degree-(k-1) sequence via the index increment and
    appends the ceil(log2(k)) block involutions of `_insertion_block`,
    which together can move position 0 to any position < k.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    elements: list[Perm] = []
    for k in range(2, n + 1):
        elements = [_embed(h) for h in elements]
        elements += [
            _insertion_block(k, level) for level in range(1, ceil(log2(k)) + 1)
        ]
    return GeneratingSequence(n, tuple(elements))


CONSTRUCTIONS = {BUBBLE: bubble_sequence, BINARY_INSERTION: binary_insertion_sequence}


def recompose(seq: GeneratingSequence, bits) -> Perm:
    """The ordered product of the masked elements, h_1 applied first."""
    if len(bits) != len(seq.elements):
        raise ValueError(f"mask length {len(bits)} != sequence length {len(seq)}")
    g = identity(seq.n)
    for h, b in zip(seq.elements, bits):
        if b:
            g = compose(h, g)
    return g


def decompose(seq: GeneratingSequence, g: Perm) -> tuple[int, ...]:
    """A bit mask with recompose(seq, mask) = g.

    Masks are not unique; the deterministic procedure per kind is:
    bubble-sort swap recording for `bubble`, the recursive first-image
    binary digits for `binary-insertion`, and for `custom` a walk back
    from rank(g^-1) through the first layers of the product sweep, each
    set bit right-multiplying by its element (raising NotDecomposable
    when g is not a product).  A custom sequence's elements must be
    permutations of its degree.
    """
    check_perm(g)
    if len(g) != seq.n:
        raise ValueError(f"degree mismatch: sequence {seq.n}, target {len(g)}")
    if seq.kind == BUBBLE:
        return _decompose_bubble(g)
    if seq.kind == BINARY_INSERTION:
        return _decompose_binary_insertion(g)
    return _decompose_sweep(seq, g)


def _decompose_bubble(g: Perm) -> tuple[int, ...]:
    # Bubble-sort the one-line array; recording a 1 whenever a comparison
    # swaps is exactly peeling g against the sequence order, since a swap
    # at slot j is right-multiplication by tau_j.
    n = len(g)
    arr = list(g)
    bits = []
    for length in range(n - 1, 0, -1):
        for j in range(length):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                bits.append(1)
            else:
                bits.append(0)
    return tuple(bits)


def _decompose_binary_insertion(g: Perm) -> tuple[int, ...]:
    # Peel stages from k = n down to 2: the stage-k block bits are the
    # binary digits (LSB first) of the current first image; dividing them
    # out leaves a permutation fixing 0, which un-embeds to degree k-1.
    bits_reversed: list[int] = []
    t = g
    for k in range(len(g), 1, -1):
        nbits = ceil(log2(k))
        v = t[0]
        digits = [(v >> (level - 1)) & 1 for level in range(1, nbits + 1)]
        block = identity(k)
        for level in range(1, nbits + 1):
            if digits[level - 1]:
                block = compose(_insertion_block(k, level), block)
        rest = compose(inverse(block), t)
        if rest[0] != 0:
            raise AssertionError(f"first-image peel failed at degree {k}")
        bits_reversed.extend(reversed(digits))
        t = tuple(v - 1 for v in rest[1:])
    return tuple(reversed(bits_reversed))


def _first_layers(seq: GeneratingSequence) -> np.ndarray:
    """first[rank(q)]: the least k such that q^-1 is an ordered product of
    h_1..h_k, each included or skipped; d + 1 when no k is.

    Layer k is layer k-1 plus h_k . p for each p in it, and
    (h_k . p)^-1 = p^-1 . h_k^-1, so q is in layer k exactly when q or
    q . h_k is in layer k-1: one gather per element, `perms.take_chunks`
    through the chunk ranks of its right action (`perms.right_action`)
    over all n! ranks, as a gate gathers a block of whole periods.
    Memory is 4 B a tour for `first`, 4 B for the gathered layer and 2 B
    of masks, within the "state" row of `limits.CAPS`.
    """
    n, d = seq.n, len(seq)
    for i, h in enumerate(seq.elements):
        if not (is_perm(h) and len(h) == n):
            raise ValueError(f"element {i + 1} is not a permutation of degree {n}: {h!r}")
    limits.check("state", n)
    first = np.full(factorial(n), d + 1, dtype=np.int32)
    first[0] = 0  # the identity
    for k, h in enumerate(seq.elements, 1):
        first[(first > d) & (take_chunks(first, *right_action(h)) < k)] = k
    return first


def _decompose_sweep(seq: GeneratingSequence, g: Perm) -> tuple[int, ...]:
    # Walk back on q = g^-1: h_k is skipped when q is already in layer
    # k-1; otherwise g = h_k . p for p in layer k-1, and p^-1 = q . h_k
    # (the elements of a custom sequence need not be involutions).
    first = _first_layers(seq)
    q = inverse(g)
    if first[rank(q)] > len(seq):
        raise NotDecomposable(f"{g} is not an ordered product of the sequence")
    bits = []
    for k in range(len(seq), 0, -1):
        bits.append(int(first[rank(q)] > k - 1))
        if bits[-1]:
            q = compose(q, seq.elements[k - 1])
    return tuple(reversed(bits))


@dataclass(frozen=True)
class GeneratingReport:
    """Outcome of exhaustive verification: reached count and leftovers."""

    generating: bool
    group_order: int
    reached: int
    unreachable: tuple[Perm, ...]

    def __bool__(self) -> bool:
        return self.generating


def verify_generating(seq: GeneratingSequence) -> GeneratingReport:
    """Certify the generating property from the product sweep: every
    rank the sweep reaches holds the inverse of one of the 2^d ordered
    products.  `unreachable` is in rank order."""
    first = _first_layers(seq)
    missed = np.flatnonzero(first > len(seq))
    missing = tuple(sorted(inverse(unrank(int(r), seq.n)) for r in missed))
    return GeneratingReport(not missing, len(first), len(first) - len(missing), missing)


def min_adjacency_length(n: int) -> int:
    """Length of the shortest generating sequence built only from
    adjacency transpositions tau_j = (j, j+1): n(n-1)/2.

    Lower bound: left multiplication by tau_j swaps the values j and j+1,
    which changes the inversion number by exactly one, so an ordered
    product of L adjacency transpositions has at most L inversions.  The
    reversal has n(n-1)/2 inversions, so a generating sequence needs at
    least that many elements.  Upper bound: the bubble sequence has that
    length and is generating (Knuth, TAOCP Vol. 3, Sec. 5.2.2).
    `checks.check_perm_core` tests both lemmas.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return n * (n - 1) // 2


def check_sequence(seq: GeneratingSequence) -> list[str]:
    """Structural problems with a sequence: elements of another degree
    and non-involutions."""
    problems = []
    for i, h in enumerate(seq.elements):
        if len(h) != seq.n:
            problems.append(f"element {i + 1} has degree {len(h)}, expected {seq.n}")
        elif not is_involution(h):
            problems.append(f"element {i + 1} is not an involution")
    return problems
