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
Circuits alternate their gates between two preallocated states through
the `out` argument of the gate and phase functions; such a gate updates
large states in cache-sized blocks through one scratch array, and gives
the same amplitudes, bit for bit, as allocating a new state per gate.
"""

import weakref
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
from .tsp import TourCost

# Amplitudes per block of the buffered gate: a block's four passes (about
# 56 bytes an amplitude with its table slice) then stay in a 2 MB L2.
# At degree 10 this halved a 45-gate circuit against whole-state passes.
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


# id -> weak reference of every table `involution_action` range-checked;
# gates gather through these without numpy's per-index bounds check.
_CHECKED_TABLES: dict[int, weakref.ref] = {}


def _mark_checked(table: np.ndarray) -> None:
    if not (0 <= table.min() and table.max() < table.size):
        raise RuntimeError("index table out of range")
    table.setflags(write=False)
    key = id(table)
    _CHECKED_TABLES[key] = weakref.ref(table, lambda _: _CHECKED_TABLES.pop(key, None))


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
    _mark_checked(out)
    return out


def apply_involution_exp(state: FeasibleState, action: np.ndarray, theta: float,
                         out: FeasibleState | None = None,
                         scratch: np.ndarray | None = None) -> FeasibleState:
    """exp(-i theta H) for the involutory permutation operator H given by
    an index table: amps'[r] = cos(theta) amps[r] - i sin(theta) amps[a(r)].

    Orbit pairs {r, a(r)} are independent, so the whole update is one
    gather; fixed points of the action pick up the phase exp(-i theta).
    With `out` (a state other than `state`) the result is written there
    and returned, bit for bit equal to the allocating form.  States longer
    than `GATE_BLOCK` amplitudes are then updated a block at a time,
    gathering through `scratch`, an array shaped like the first
    `GATE_BLOCK` amplitudes (allocated when omitted), so that each block's
    passes stay in cache.
    """
    if out is None:
        amps = np.cos(theta) * state.amps - 1j * np.sin(theta) * state.amps[action]
        return FeasibleState(state.n, amps)
    amps, dest = state.amps, out.amps
    if out is state or dest is amps:
        raise ValueError("out must not be the input state")
    size = len(amps)
    if len(action) != size:
        raise ValueError(f"action table has {len(action)} entries for {size} amplitudes")
    c, s = np.cos(theta), 1j * np.sin(theta)
    if size <= GATE_BLOCK:
        # one block: fancy indexing is the cheapest bounds-checked gather
        _mix(c, amps, s, amps[action], dest)
        return out
    if scratch is None:
        scratch = np.empty_like(amps[:GATE_BLOCK])
    elif scratch is amps or scratch is dest:
        raise ValueError("scratch must not be the input or output state")
    # "raise" would copy through a temporary; a checked table of the
    # state's length is in range, so "wrap" never wraps
    checked = _CHECKED_TABLES.get(id(action))
    mode = "wrap" if checked is not None and checked() is action else "raise"
    for i in range(0, size, GATE_BLOCK):
        index = action[i:i + GATE_BLOCK]
        gathered = amps.take(index, axis=0, out=scratch[:len(index)], mode=mode)
        _mix(c, amps[i:i + GATE_BLOCK], s, gathered, dest[i:i + GATE_BLOCK])
    return out


def _mix(c, block: np.ndarray, s, gathered: np.ndarray, dest: np.ndarray) -> None:
    """dest = c * block - s * gathered, overwriting `gathered`, with the
    same roundings as the allocating expression."""
    np.multiply(c, block, out=dest)
    np.multiply(s, gathered, out=gathered)
    np.subtract(dest, gathered, out=dest)


def apply_phase(state: FeasibleState, gamma: float, cost,
                out: FeasibleState | None = None) -> FeasibleState:
    """Diagonal phase exp(-i gamma * cost) per tour; probabilities untouched.

    `cost` is a TourCost or a precomputed rank-indexed cost vector.  With
    `out` (a state other than `state`) the result is written there and
    returned.
    """
    vec = cost.vector() if isinstance(cost, TourCost) else np.asarray(cost)
    if out is None:
        return FeasibleState(state.n, np.exp(-1j * gamma * vec) * state.amps)
    if out is state or out.amps is state.amps:
        raise ValueError("out must not be the input state")
    np.multiply(-1j * gamma, vec, out=out.amps)
    np.exp(out.amps, out=out.amps)
    np.multiply(out.amps, state.amps, out=out.amps)
    return out


def spare_buffers(state: FeasibleState) -> tuple[FeasibleState, np.ndarray | None]:
    """A second state shaped like `state` and the gate scratch array (None
    when one block covers the state), so that a circuit can alternate its
    gates between two states without allocating."""
    amps = state.amps
    scratch = np.empty_like(amps[:GATE_BLOCK]) if len(amps) > GATE_BLOCK else None
    return FeasibleState(state.n, np.empty_like(amps)), scratch


def run_exhaustive_circuit(seq: GeneratingSequence, thetas, start: Perm) -> FeasibleState:
    """Apply the parametrised exponential of every sequence element in
    order to the basis state of `start`."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (len(seq.elements),):
        raise ValueError(f"need {len(seq.elements)} angles, got shape {thetas.shape}")
    state = basis_state(start)
    spare, scratch = spare_buffers(state)
    for h, theta in zip(seq.elements, thetas):
        action = involution_action(h, seq.action_side)
        state, spare = apply_involution_exp(state, action, theta, out=spare, scratch=scratch), state
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


def expectation(state: FeasibleState, cost) -> float:
    """Sum of |amp|^2 times tour cost; lies between min and max cost."""
    vec = cost.vector() if isinstance(cost, TourCost) else np.asarray(cost)
    return float(np.real(np.vdot(state.amps, vec * state.amps)))


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
