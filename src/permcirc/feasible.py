"""Exact simulation in the feasible subspace.

States are complex amplitude vectors over all n! tour permutations,
indexed by Lehmer rank; infeasible bit strings simply do not exist in
this representation.  Exponentials of involutory permutation operators
reduce to cos(theta) * amps - i sin(theta) * gathered amps, so a gate is
one vectorised gather-and-mix pass over a precomputed index table.

An element acting on the right that moves only positions s..e changes
only rank digits s..e, so its table comes from re-ranking the
arrangements of those e-s+1 digits and broadcasting them over the
untouched high and low digits; left actions rank every permuted tour.
Circuits alternate their gates between two states through the `out`
argument of the gate and phase functions.  A gate gathers large states
block by block, each gather bounds-checked by numpy indexing, and gives
the same amplitudes, bit for bit, whether or not `out` is given.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from . import limits
from .perms import (
    Perm,
    check_perm,
    compose,
    identity,
    inverse,
    is_involution,
    perm_table,
    rank,
    rank_rows,
    unrank,
)
from .sequences import GeneratingSequence, decompose

# Amplitudes per gate block: a state longer than this is gathered and mixed
# a block at a time, so that a block's passes (about 56 bytes an amplitude
# with its table slice) stay in a 2 MB L2.  Shorter states take one gather,
# which skips the per-block slicing.
GATE_BLOCK = 16384


@dataclass
class FeasibleState:
    """Amplitudes over S_n in Lehmer-rank order; norm 1."""

    n: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "FeasibleState":
        return FeasibleState(self.n, self.amps.copy())


def basis_state(p: Perm) -> FeasibleState:
    """Unit amplitude on one tour."""
    check_perm(p)
    limits.check("state", len(p))
    amps = np.zeros(factorial(len(p)), dtype=complex)
    amps[rank(p)] = 1.0
    return FeasibleState(len(p), amps)


def uniform_feasible_state(n: int) -> FeasibleState:
    """Every tour at amplitude 1/sqrt(n!)."""
    limits.check("state", n)
    size = factorial(n)
    amps = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    return FeasibleState(n, amps)


def _window_action(element: Perm) -> np.ndarray:
    """Right action of an involution that moves only positions s..e.

    Rank digits outside s..e stay put, and digits s..e are the rank of the
    m = e-s+1 leading values of the tour restricted to positions s.., an
    arrangement of m out of N = n-s values.  So rank a*N! + k*B + b, with
    B = (N-m)!, maps to a*N! + mid[k]*B + b, where mid re-ranks the K = N!/B
    arrangements after the element permutes their entries.
    """
    n = len(element)
    moved = [i for i, v in enumerate(element) if v != i]
    s, e = moved[0], moved[-1]
    big, m = n - s, e - s + 1
    block = factorial(big - m)
    arrangements = perm_table(big)[::block, :m]
    local = np.asarray(element[s:e + 1]) - s
    mid = rank_rows(arrangements[:, local], big)
    high = (np.arange(factorial(n) // factorial(big))[:, None] * len(mid) + mid) * block
    table = np.empty((*high.shape, block), dtype=np.int64)
    np.add(high[:, :, None], np.arange(block), out=table)
    return table.reshape(-1)


@lru_cache(maxsize=None)
def involution_action(element: Perm, side: str = "right") -> np.ndarray:
    """Rank-index table of one involution acting on all of S_n.

    side "right" maps rank(p) -> rank(p . element) (slot semantics);
    side "left" maps rank(p) -> rank(element . p).  The table is itself
    an involution on 0..n!-1.  Right actions re-rank only the window of
    positions the element moves; left actions rank every permuted row.
    """
    if not is_involution(element):
        raise ValueError(f"element is not an involution: {element}")
    if side not in ("left", "right"):
        raise ValueError(f"bad action side {side!r}")
    n = len(element)
    limits.check("state", n)
    if element == identity(n):
        out = np.arange(factorial(n), dtype=np.int64)
    elif side == "right":
        out = _window_action(element)
    else:
        out = rank_rows(np.asarray(element, dtype=np.int8)[perm_table(n)], n)
    out.setflags(write=False)
    return out


def apply_involution_exp(state: FeasibleState, action: np.ndarray, theta: float,
                         out: FeasibleState | None = None) -> FeasibleState:
    """exp(-i theta H) for the involutory permutation operator H given by
    an index table: amps'[r] = cos(theta) amps[r] - i sin(theta) amps[a(r)].

    Orbit pairs {r, a(r)} are independent, so the whole update is one
    gather; fixed points of the action pick up the phase exp(-i theta).
    The result is written to `out` (a state other than `state`), or to a
    new state when `out` is omitted, and returned.  States longer than
    `GATE_BLOCK` amplitudes are gathered and mixed a block at a time; an
    index out of range raises IndexError either way.
    """
    amps = state.amps
    size = len(amps)
    if len(action) != size:
        raise ValueError(f"action table has {len(action)} entries for {size} amplitudes")
    if out is None:
        out = FeasibleState(state.n, np.empty_like(amps))
    elif out is state or out.amps is amps:
        raise ValueError("out must not be the input state")
    dest = out.amps
    c, s = np.cos(theta), 1j * np.sin(theta)
    if size <= GATE_BLOCK:
        _mix(c, amps, s, amps[action], dest)
        return out
    for i in range(0, size, GATE_BLOCK):
        block = slice(i, i + GATE_BLOCK)
        _mix(c, amps[block], s, amps[action[block]], dest[block])
    return out


def _mix(c, block: np.ndarray, s, gathered: np.ndarray, dest: np.ndarray) -> None:
    """dest = c * block - s * gathered, overwriting `gathered`, with the
    same roundings as the allocating expression."""
    np.multiply(c, block, out=dest)
    np.multiply(s, gathered, out=gathered)
    np.subtract(dest, gathered, out=dest)


def apply_phase(state: FeasibleState, gamma: float, cost: np.ndarray,
                out: FeasibleState | None = None) -> FeasibleState:
    """Diagonal phase exp(-i gamma * cost) per tour, for the rank-indexed
    cost vector `cost`; probabilities untouched.  The result is written to
    `out` (a state other than `state`), or to a new state when `out` is
    omitted, and returned."""
    if out is None:
        out = FeasibleState(state.n, np.empty_like(state.amps))
    elif out is state or out.amps is state.amps:
        raise ValueError("out must not be the input state")
    np.multiply(-1j * gamma, cost, out=out.amps)
    np.exp(out.amps, out=out.amps)
    np.multiply(out.amps, state.amps, out=out.amps)
    return out


def run_exhaustive_circuit(seq: GeneratingSequence, thetas, start: Perm) -> FeasibleState:
    """Apply the parametrised exponential of every sequence element in
    order to the basis state of `start`."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (len(seq.elements),):
        raise ValueError(f"need {len(seq.elements)} angles, got shape {thetas.shape}")
    state, spare = basis_state(start), None
    for h, theta in zip(seq.elements, thetas):
        action = involution_action(h, seq.action_side)
        state, spare = apply_involution_exp(state, action, theta, out=spare), state
    return state


def reachability_params(seq: GeneratingSequence, start: Perm, target: Perm) -> np.ndarray:
    """Angles pi/2 * mask that drive `start` exactly onto `target`.

    The element carrying start to target on the declared action side is
    decomposed over the sequence; at angle pi/2 each selected factor acts
    as -i times its permutation operator, so the final state is `target`
    up to a global phase.
    """
    check_perm(start)
    check_perm(target)
    if seq.action_side == "right":
        g = compose(inverse(target), start)
    else:
        g = compose(target, inverse(start))
    mask = decompose(seq, g)
    return np.pi / 2 * np.asarray(mask, dtype=float)


def expectation(state: FeasibleState, cost: np.ndarray) -> float:
    """Sum of |amp|^2 times tour cost, for the rank-indexed cost vector
    `cost`; lies between min and max cost."""
    return float(np.real(np.vdot(state.amps, cost * state.amps)))


def probabilities(state: FeasibleState) -> np.ndarray:
    return np.abs(state.amps) ** 2


def sample(state: FeasibleState, seed: int, k: int) -> list[Perm]:
    """k tours drawn per |amp|^2, reproducible for a fixed seed."""
    rng = np.random.default_rng(seed)
    probs = probabilities(state)
    probs = probs / probs.sum()
    ranks = rng.choice(len(probs), size=k, p=probs)
    return [unrank(int(r), state.n) for r in ranks]


def fidelity(state: FeasibleState, target: Perm) -> float:
    """|<target|state>| for a basis target."""
    return float(np.abs(state.amps[rank(target)]))
