"""Small-scale full-statevector oracle over all 2^m bit strings.

Validates the feasible-subspace simulator against the genuine qubit
dynamics: the bit-level subregister-swap extension of each involution,
the one-ancilla circuit for exponentiated Hermitian unitaries, and a
Taylor-series matrix exponential for the raw swap-mixer Hamiltonians.
Bit k of an m-bit string is mapped to integer bit m-1-k, so index 0 is
the all-zero string and indices read MSB-first like `format_bits`.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import limits
from .encoding import ONEHOT, Bits, EncodingSpec, encode
from .feasible import FeasibleState
from .perms import Perm, all_perms, is_involution


@dataclass
class StateVector:
    """Amplitudes over all 2^m computational basis states."""

    m: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def bits_to_index(bits: Bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def index_to_bits(index: int, m: int) -> Bits:
    return tuple((index >> (m - 1 - k)) & 1 for k in range(m))


def zero_state(m: int) -> StateVector:
    limits.check("statevector", m)
    amps = np.zeros(1 << m, dtype=complex)
    amps[0] = 1.0
    return StateVector(m, amps)


def basis_statevector(bits: Bits) -> StateVector:
    limits.check("statevector", len(bits))
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[bits_to_index(bits)] = 1.0
    return StateVector(len(bits), amps)


@lru_cache(maxsize=None)
def swap_index_table(element: Perm, spec: EncodingSpec) -> np.ndarray:
    """Index table over 2^m of the subregister swap of `element`: entry x
    holds the integer whose bit string is the slot-permuted one."""
    if not is_involution(element):
        raise ValueError("slot element must be an involution")
    m = spec.num_bits
    limits.check("statevector", m)
    r = spec.subregister_width
    idx = np.arange(1 << m, dtype=np.int64)
    out = np.zeros_like(idx)
    for t in range(spec.degree):
        src = element[t]
        for k in range(r):
            # destination bit position t*r+k takes source bit src*r+k
            sbit = m - 1 - (src * r + k)
            dbit = m - 1 - (t * r + k)
            out |= ((idx >> sbit) & 1) << dbit
    out.setflags(write=False)
    return out


def apply_swap_involution_exp(sv: StateVector, element: Perm, spec: EncodingSpec,
                              theta: float) -> StateVector:
    """exp(-i theta H) on the full space, H the bit-level subregister swap."""
    table = swap_index_table(element, spec)
    amps = np.cos(theta) * sv.amps - 1j * np.sin(theta) * sv.amps[table]
    return StateVector(sv.m, amps)


def feasible_indices(spec: EncodingSpec) -> np.ndarray:
    """Integer index of encode(p) for every p in rank order."""
    return np.array(
        [bits_to_index(encode(p, spec)) for p in all_perms(spec.degree)],
        dtype=np.int64,
    )


def project_feasible(sv: StateVector, spec: EncodingSpec) -> tuple[FeasibleState, float]:
    """Amplitudes on the feasible strings as a rank-indexed state, plus
    the total probability mass outside them."""
    idx = feasible_indices(spec)
    feas = sv.amps[idx]
    mass = float(np.sum(np.abs(sv.amps) ** 2) - np.sum(np.abs(feas) ** 2))
    return FeasibleState(spec.degree, feas), mass


def infeasible_mass(sv: StateVector, spec: EncodingSpec) -> float:
    return project_feasible(sv, spec)[1]


def ancilla_exponential_circuit(sv: StateVector, element: Perm, spec: EncodingSpec,
                                theta: float) -> np.ndarray:
    """Run the one-ancilla realisation of exp(-i theta U) for the
    subregister-swap unitary U: Hadamard, controlled-U, Rx(2 theta),
    controlled-U, Hadamard, with the ancilla starting in |0>.

    Returns the (2^m, 2) array of joint amplitudes, ancilla value as the
    second axis; column 0 should hold exp(-i theta U) applied to the data
    register and column 1 should be empty.
    """
    table = swap_index_table(element, spec)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rx = np.array(
        [[np.cos(theta), -1j * np.sin(theta)],
         [-1j * np.sin(theta), np.cos(theta)]]
    )
    joint = np.zeros((len(sv.amps), 2), dtype=complex)
    joint[:, 0] = sv.amps
    joint = joint @ h.T
    joint[:, 1] = joint[table, 1]   # controlled swap on the ancilla-1 branch
    joint = joint @ rx.T
    joint[:, 1] = joint[table, 1]
    joint = joint @ h.T
    return joint


def ancilla_exponential_check(element: Perm, spec: EncodingSpec, theta: float,
                              trials: int, seed: int = 0) -> float:
    """Max deviation between the ancilla circuit and the closed-form
    exp(-i theta U) over random input states, including any residual
    ancilla |1> population."""
    limits.check("statevector", spec.num_bits)
    rng = np.random.default_rng(seed)
    dim = 1 << spec.num_bits
    worst = 0.0
    for _ in range(trials):
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        sv = StateVector(spec.num_bits, amps)
        joint = ancilla_exponential_circuit(sv, element, spec, theta)
        direct = apply_swap_involution_exp(sv, element, spec, theta)
        worst = max(
            worst,
            float(np.max(np.abs(joint[:, 0] - direct.amps))),
            float(np.max(np.abs(joint[:, 1]))),
        )
    return worst


def swap_partial_hamiltonian(slot: int, spec: EncodingSpec,
                             wraparound: bool = True) -> sp.csr_matrix:
    """The raw one-hot mixer Hamiltonian for a slot pair, assembled from
    the four-factor raising/lowering products summed over unordered city
    pairs.  Slot n-1 pairs with slot 0 when wraparound is on.
    """
    limits.check("statevector", spec.num_bits)
    if spec.kind != ONEHOT:
        raise ValueError("explicit swap Hamiltonian is built for the one-hot encoding")
    n = spec.degree
    last = n - 1 if wraparound else n - 2
    if not 0 <= slot <= last:
        raise ValueError(f"slot {slot} out of range 0..{last}")
    s, t = slot, (slot + 1) % n
    m = spec.num_bits

    def bitpos(city, time):
        return m - 1 - (time * n + city)

    rows, cols = [], []
    for x in range(1 << m):
        for u in range(n):
            for v in range(u + 1, n):
                # S+_{u,s} S+_{v,t} S-_{u,t} S-_{v,s}: annihilates unless
                # u at t and v at s, then moves u to s and v to t.
                for a, b in ((u, v), (v, u)):
                    if (
                        (x >> bitpos(a, t)) & 1
                        and (x >> bitpos(b, s)) & 1
                        and not (x >> bitpos(a, s)) & 1
                        and not (x >> bitpos(b, t)) & 1
                    ):
                        y = x
                        for pos in (bitpos(a, t), bitpos(b, s), bitpos(a, s), bitpos(b, t)):
                            y ^= 1 << pos
                        rows.append(y)
                        cols.append(x)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(1 << m, 1 << m))


def taylor_expm_apply(H: sp.spmatrix, beta: float, sv: StateVector,
                      tol: float = 1e-14, max_terms: int = 200) -> StateVector:
    """exp(-i beta H) |sv> by summing the Taylor series term by term until
    the next term's norm falls below tol."""
    acc = sv.amps.astype(complex).copy()
    term = sv.amps.astype(complex).copy()
    for k in range(1, max_terms + 1):
        term = H.dot(term) * (-1j * beta / k)
        acc += term
        if np.linalg.norm(term) < tol:
            return StateVector(sv.m, acc)
    raise RuntimeError(f"Taylor series did not converge within {max_terms} terms")
