"""Generating sequences of involutions for the symmetric group.

A sequence (h_1, ..., h_d) is *generating* when every g in S_n equals the
ordered product with each element either included or skipped, h_1 applied
first.  Two constructions are provided:

* `bubble_sequence`: adjacency transpositions in bubble-sort order, one
  pass of length n-1 down to a pass of length 1; d = n(n-1)/2.
* `binary_insertion_sequence`: built inductively, appending for each new
  degree k the block involutions that move position 1 by powers of two;
  d = sum of ceil(log2(k)) for k = 2..n.

`decompose` finds a bit mask whose `recompose` product equals a given
permutation; `verify_generating` certifies a sequence by exhaustive
enumeration of all 2^d masks.
"""

from dataclasses import dataclass
from math import ceil, factorial, log2

from . import limits
from .perms import (
    Perm,
    all_perms,
    check_perm,
    compose,
    identity,
    inverse,
    is_involution,
    transposition,
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
    kind: str = CUSTOM
    action_side: str = "right"

    def __post_init__(self):
        if self.action_side not in ("left", "right"):
            raise ValueError(f"bad action_side {self.action_side!r}")

    def __len__(self) -> int:
        return len(self.elements)


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
    return GeneratingSequence(n, elements, kind=BUBBLE)


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
    return GeneratingSequence(n, tuple(elements), kind=BINARY_INSERTION)


def expected_length(kind: str, n: int) -> int:
    """Closed-form sequence length: n(n-1)/2 for bubble, sum of
    ceil(log2(k)) for binary insertion."""
    if kind == BUBBLE:
        return n * (n - 1) // 2
    if kind == BINARY_INSERTION:
        return sum(ceil(log2(k)) for k in range(2, n + 1))
    raise ValueError(f"no closed-form length for kind {kind!r}")


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
    binary digits for `binary-insertion`, and a reachability sweep for
    `custom` (which raises NotDecomposable when g is not a product).
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


def _decompose_sweep(seq: GeneratingSequence, g: Perm) -> tuple[int, ...]:
    # Layered reachability with parent pointers: layer k holds every
    # product of h_k^{b_k}..h_1^{b_1}.  Memory is O(d * n!).
    limits.check("decompose sweep", seq.n)
    layer: dict[Perm, tuple[Perm, int] | None] = {identity(seq.n): None}
    layers = [layer]
    for h in seq.elements:
        nxt: dict[Perm, tuple[Perm, int] | None] = {}
        for p in layer:
            nxt.setdefault(p, (p, 0))
            nxt.setdefault(compose(h, p), (p, 1))
        layers.append(nxt)
        layer = nxt
    if g not in layer:
        raise NotDecomposable(f"{g} is not an ordered product of the sequence")
    bits = []
    cur = g
    for k in range(len(seq.elements), 0, -1):
        prev, bit = layers[k][cur]
        bits.append(bit)
        cur = prev
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
    """Certify the generating property by enumerating all 2^d ordered
    products, within the "generating check" row of `limits.CAPS`."""
    d = len(seq.elements)
    limits.check("generating check", d)
    order = factorial(seq.n)
    reached: set[Perm] = set()

    def visit(k: int, g: Perm):
        if len(reached) == order:
            return
        if k == d:
            reached.add(g)
            return
        visit(k + 1, g)
        visit(k + 1, compose(seq.elements[k], g))

    visit(0, identity(seq.n))
    missing = tuple(p for p in all_perms(seq.n) if p not in reached)
    return GeneratingReport(not missing, order, len(reached), missing)


def min_adjacency_length(n: int) -> int:
    """Length of the shortest generating sequence built only from
    adjacency transpositions, by iterative-deepening exhaustive search.

    Search cost grows as (n-1)^L, within the "adjacency search" row of
    `limits.CAPS`.  The bubble sequence attains the returned value.
    """
    limits.check("adjacency search", n)
    if n == 1:
        return 0
    taus = [transposition(n, j, j + 1) for j in range(n - 1)]
    order = factorial(n)
    upper = n * (n - 1) // 2

    def search(depth: int, remaining: int, reach: set[Perm]) -> bool:
        if len(reach) == order:
            return True
        # each further element at most doubles the reachable set
        if len(reach) << remaining < order:
            return False
        if remaining == 0:
            return False
        for tau in taus:
            grown = reach | {compose(tau, p) for p in reach}
            if search(depth + 1, remaining - 1, grown):
                return True
        return False

    for length in range(1, upper + 1):
        if 2**length < order:
            continue
        if search(0, length, {identity(n)}):
            return length
    return upper


def check_sequence(seq: GeneratingSequence, exhaustive: bool = False) -> list[str]:
    """Structural problems with a sequence: non-involutions, wrong
    closed-form length, and (optionally) a failed generating check."""
    problems = []
    for i, h in enumerate(seq.elements):
        if len(h) != seq.n:
            problems.append(f"element {i + 1} has degree {len(h)}, expected {seq.n}")
        elif not is_involution(h):
            problems.append(f"element {i + 1} is not an involution")
    if seq.kind in (BUBBLE, BINARY_INSERTION):
        want = expected_length(seq.kind, seq.n)
        if len(seq.elements) != want:
            problems.append(
                f"{seq.kind} length is {len(seq.elements)}, expected {want}"
            )
    if exhaustive and not problems:
        report = verify_generating(seq)
        if not report:
            problems.append(
                f"not generating: {len(report.unreachable)} of "
                f"{report.group_order} elements unreachable"
            )
    return problems
