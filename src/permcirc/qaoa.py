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
    basis_state,
    involution_action,
    run_steps,
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


def mixer_slots(degree: int, wraparound: bool = True) -> list[np.ndarray]:
    """Action tables of one mixer sweep's factors, slots ascending."""
    last = degree if wraparound else degree - 1
    return [mixer_slot_action(t, degree, wraparound) for t in range(last)]


def initial_state(cfg: QaoaConfig, degree: int, start: Perm | None = None) -> FeasibleState:
    if start is not None and len(start) != degree:
        raise ValueError(f"start tour has degree {len(start)}, circuit degree {degree}")
    if cfg.initial == "uniform":
        return uniform_feasible_state(degree)
    return basis_state(start if start is not None else identity(degree))


def qaoa_steps(cost: np.ndarray, cfg: QaoaConfig, degree: int) -> list:
    """The circuit as `feasible.run_steps` steps over the angles
    (betas, gammas): per layer the phase separator of the rank-indexed
    cost vector `cost` on gamma, then every mixer slot on beta.  The phase
    step holds `cost` as float64, since an integer generator would be
    taken for an action table."""
    cost = np.asarray(cost, dtype=float)
    slots = mixer_slots(degree, cfg.slot_wraparound)
    steps = []
    for layer in range(cfg.layers):
        steps.append((cost, cfg.layers + layer))
        steps.extend((action, layer) for action in slots)
    return steps


def run_qaoa(cost: TourCost, cfg: QaoaConfig, betas, gammas,
             start: Perm | None = None) -> FeasibleState:
    """Alternate phase separator and sequential mixer for cfg.layers
    layers on the configured initial state."""
    betas, gammas = np.asarray(betas, float), np.asarray(gammas, float)
    if betas.shape != (cfg.layers,) or gammas.shape != (cfg.layers,):
        raise ValueError(
            f"need {cfg.layers} betas and gammas, got {betas.shape} and {gammas.shape}"
        )
    state = initial_state(cfg, cost.degree, start)
    steps = qaoa_steps(cost.vector(), cfg, cost.degree)
    return run_steps(state, steps, np.concatenate([betas, gammas]))
