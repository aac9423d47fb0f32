import numpy as np
import pytest

from permcirc.checks import check_cross_simulator, check_mixer_oracle
from permcirc.encoding import COMPACT, ONEHOT, EncodingSpec, encode
from permcirc.fullstate import (
    StateVector,
    ancilla_exponential_check,
    ancilla_exponential_circuit,
    apply_swap_involution_exp,
    basis_statevector,
    bits_to_index,
    index_to_bits,
    infeasible_mass,
    swap_index_table,
    swap_partial_hamiltonian,
    taylor_expm_apply,
)
from permcirc.perms import identity, transposition
from permcirc.sequences import binary_insertion_sequence, bubble_sequence


def test_bit_index_conventions():
    assert bits_to_index((1, 0, 1)) == 5
    assert index_to_bits(5, 3) == (1, 0, 1)
    assert index_to_bits(bits_to_index((0, 1, 1, 0)), 4) == (0, 1, 1, 0)


def test_swap_index_table_matches_bit_level_swap():
    from permcirc.encoding import all_bitstrings, subregister_swap

    for kind in (ONEHOT, COMPACT):
        spec = EncodingSpec(3, kind)
        element = transposition(3, 0, 2)
        table = swap_index_table(element, spec)
        for bits in all_bitstrings(spec.num_bits):
            swapped = subregister_swap(bits, element, spec)
            assert table[bits_to_index(bits)] == bits_to_index(swapped)


def test_apply_swap_exp_zero_angle():
    spec = EncodingSpec(3, COMPACT)
    sv = basis_statevector(encode(identity(3), spec))
    out = apply_swap_involution_exp(sv, transposition(3, 0, 1), spec, 0.0)
    assert np.array_equal(out.amps, sv.amps)


def test_infeasible_amplitude_stays_zero():
    spec = EncodingSpec(3, COMPACT)
    rng = np.random.default_rng(0)
    pool = list(set(bubble_sequence(3).elements) | set(binary_insertion_sequence(3).elements))
    sv = basis_statevector(encode((2, 0, 1), spec))
    for _ in range(30):
        h = pool[rng.integers(len(pool))]
        sv = apply_swap_involution_exp(sv, h, spec, rng.uniform(0, 2 * np.pi))
    assert infeasible_mass(sv, spec) <= 1e-12
    assert sv.norm() == pytest.approx(1.0, abs=1e-12)


def test_cross_simulator_agreement_small():
    specs = (EncodingSpec(3, ONEHOT), EncodingSpec(3, COMPACT), EncodingSpec(4, COMPACT))
    ok, detail = check_cross_simulator(circuits=1, seed=1, specs=specs)
    assert ok, detail


def test_ancilla_circuit_identity_and_quarter_turn():
    spec = EncodingSpec(3, COMPACT)
    element = transposition(3, 1, 2)
    rng = np.random.default_rng(2)
    amps = rng.normal(size=1 << spec.num_bits) + 1j * rng.normal(size=1 << spec.num_bits)
    amps /= np.linalg.norm(amps)
    sv = StateVector(spec.num_bits, amps)

    joint = ancilla_exponential_circuit(sv, element, spec, 0.0)
    assert np.max(np.abs(joint[:, 0] - amps)) <= 1e-12
    assert np.max(np.abs(joint[:, 1])) <= 1e-12

    joint = ancilla_exponential_circuit(sv, element, spec, np.pi / 2)
    table = swap_index_table(element, spec)
    minus_i_U = -1j * amps[table]
    overlap = abs(np.vdot(joint[:, 0], minus_i_U))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(joint[:, 0] - minus_i_U)) <= 1e-10


def test_ancilla_check_many_trials():
    spec = EncodingSpec(3, COMPACT)
    for element in binary_insertion_sequence(3).elements:
        worst = ancilla_exponential_check(element, spec, theta=1.234, trials=10, seed=3)
        assert worst <= 1e-10


def test_taylor_zero_hamiltonian():
    import scipy.sparse as sp

    spec = EncodingSpec(3, COMPACT)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=1 << spec.num_bits).astype(complex)
    amps /= np.linalg.norm(amps)
    sv = StateVector(spec.num_bits, amps)
    H = sp.csr_matrix((len(amps), len(amps)))
    out = taylor_expm_apply(H, 0.9, sv)
    assert np.allclose(out.amps, amps)


def test_taylor_on_involutory_permutation_operator():
    import scipy.sparse as sp

    spec = EncodingSpec(3, COMPACT)
    element = transposition(3, 0, 1)
    table = swap_index_table(element, spec)
    dim = len(table)
    P = sp.csr_matrix((np.ones(dim), (np.arange(dim), np.asarray(table))), shape=(dim, dim))
    rng = np.random.default_rng(5)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    sv = StateVector(spec.num_bits, amps)
    beta = 0.77
    out = taylor_expm_apply(P, beta, sv)
    closed_form = np.cos(beta) * amps - 1j * np.sin(beta) * amps[table]
    assert np.max(np.abs(out.amps - closed_form)) <= 1e-12
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("beta", [0.3, np.pi / 4, 1.2])
def test_mixer_hamiltonian_matches_slot_swap_on_feasible_states(slot, beta):
    ok, detail = check_mixer_oracle(slots=(slot,), betas=(beta,))
    assert ok, detail


def test_mixer_hamiltonian_requires_onehot():
    with pytest.raises(ValueError):
        swap_partial_hamiltonian(0, EncodingSpec(3, COMPACT))
