"""Sequential swap-mixer QAOA baseline on the feasible subspace.

The mixer is a product over time slots of exponentiated swap
Hamiltonians; restricted to feasible states, the slot-t Hamiltonian is
exactly the permutation operator exchanging the cities at slots t and
t+1, hence involutory there and simulable with the same gather-and-mix
gate as the sequence circuits.  Factors with |s - t| = 1 do not commute,
so the slot order is fixed ascending.
"""

from dataclasses import dataclass

import numpy as np

from .feasible import (
    FeasibleState,
    apply_involution_exp,
    apply_phase,
    basis_state,
    involution_action,
    uniform_feasible_state,
)
from .perms import Perm, identity, transposition
from .tsp import TourCost


@dataclass(frozen=True)
class QaoaConfig:
    """Layer count, initial state, and whether slot n pairs with slot 1."""

    layers: int
    initial: str = "basis"
    slot_wraparound: bool = True

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layer count must be >= 1")
        if self.initial not in ("basis", "uniform"):
            raise ValueError(f"initial must be basis or uniform, got {self.initial!r}")


def default_layers(degree: int) -> int:
    """Layer count matching the sequence circuits' length: one layer holds
    degree - 1 exponentiated swaps plus the phase separator, against
    degree(degree-1)/2 exponentiated transpositions, so ceil((degree-1)/2)
    layers give roughly equal depth."""
    return max(1, degree // 2)


def mixer_slot_action(t: int, n: int, wraparound: bool = True) -> np.ndarray:
    """Rank-index table of the slot-t mixer factor on degree-n tours.

    Slot t (0-based) pairs with slot t+1; t = n-1 pairs with slot 0 and
    is only valid with wraparound.
    """
    last = n - 1 if wraparound else n - 2
    if not 0 <= t <= last:
        raise ValueError(f"slot {t} out of range 0..{last}")
    if t == n - 1:
        swap = transposition(n, 0, n - 1)
    else:
        swap = transposition(n, t, t + 1)
    return involution_action(swap, "right")


def apply_seq_mixer(state: FeasibleState, beta: float, wraparound: bool = True,
                    spare: FeasibleState | None = None) -> FeasibleState:
    """One sweep of exponentiated slot swaps, slots ascending.

    Given `spare`, the gates alternate between `state` itself and `spare`:
    `state` is overwritten, and the result is whichever of the two the
    last slot wrote.  Without it they alternate between a copy of `state`
    and a state the first gate allocates, and `state` is left as it was.
    """
    if spare is None:
        state = state.copy()
    last = state.n if wraparound else state.n - 1
    for t in range(last):
        action = mixer_slot_action(t, state.n, wraparound)
        state, spare = apply_involution_exp(state, action, beta, out=spare), state
    return state


def initial_state(cfg: QaoaConfig, degree: int, start: Perm | None = None) -> FeasibleState:
    if cfg.initial == "uniform":
        return uniform_feasible_state(degree)
    return basis_state(start if start is not None else identity(degree))


def run_qaoa(cost: TourCost, cfg: QaoaConfig, betas, gammas,
             start: Perm | None = None) -> FeasibleState:
    """Alternate phase separator and sequential mixer for cfg.layers
    layers on the configured initial state."""
    betas, gammas = np.asarray(betas, float), np.asarray(gammas, float)
    if betas.shape != (cfg.layers,) or gammas.shape != (cfg.layers,):
        raise ValueError(
            f"need {cfg.layers} betas and gammas, got {betas.shape} and {gammas.shape}"
        )
    state, spare = initial_state(cfg, cost.degree, start), None
    vec = cost.vector()
    for beta, gamma in zip(betas, gammas):
        phased = apply_phase(state, gamma, vec, out=spare)
        mixed = apply_seq_mixer(phased, beta, cfg.slot_wraparound, spare=state)
        state, spare = mixed, (state if mixed is phased else phased)
    return state
