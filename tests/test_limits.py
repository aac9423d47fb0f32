"""The one table of size caps: every row refuses a size one past its
cap, before allocating, with a message that states the cap."""

import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from permcirc import limits
from permcirc.encoding import COMPACT, ONEHOT, EncodingSpec
from permcirc.experiment import RunSpec
from permcirc.feasible import basis_state, involution_action, uniform_feasible_state
from permcirc.fullstate import (
    ancilla_exponential_check,
    basis_statevector,
    swap_index_table,
    swap_partial_hamiltonian,
    zero_state,
)
from permcirc.limits import CAPS, TooLarge
from permcirc.optimize import OptConfig, minimize
from permcirc.perms import identity, perm_table, rank, rank_rows, right_action, transposition, unrank
from permcirc.sequences import GeneratingSequence, decompose, verify_generating
from permcirc.tsp import TourCost, optimum, random_instance

# built outside the measured calls
THIRTEEN = random_instance(13, seed=0)
TWELVE = random_instance(12, seed=0)
ROWS = np.zeros((1, 2), dtype=np.int8)
QUBITS_18 = EncodingSpec(6, COMPACT)  # 6 slots of 3 bits
DEGREE_11 = GeneratingSequence(11, (transposition(11, 0, 1),))
PAST_PARAMETERS = np.zeros(CAPS["parameters"].limit + 1)

# (row, one call per structure the row covers, each one past the cap)
REFUSALS = [
    ("state", lambda: basis_state(identity(11))),
    ("state", lambda: uniform_feasible_state(11)),
    ("state", lambda: involution_action(transposition(11, 0, 1))),
    ("permutations", lambda: rank(identity(12))),
    ("permutations", lambda: unrank(0, 12)),
    ("permutations", lambda: rank_rows(ROWS, 12)),
    ("permutations", lambda: perm_table(12)),
    ("permutations", lambda: TourCost(THIRTEEN, reduced=True).vector()),
    ("permutations", lambda: optimum(THIRTEEN, reduced=True)),
    ("statevector", lambda: zero_state(18)),
    ("statevector", lambda: basis_statevector((0,) * 18)),
    ("statevector", lambda: swap_index_table(identity(6), QUBITS_18)),
    ("state", lambda: verify_generating(DEGREE_11)),
    ("state", lambda: decompose(DEGREE_11, identity(11))),
    ("state", lambda: RunSpec(TWELVE)),
    ("instance", lambda: random_instance(4097, seed=0)),
    ("statevector", lambda: ancilla_exponential_check(identity(6), QUBITS_18, 0.3, 1)),
    ("parameters", lambda: minimize(None, PAST_PARAMETERS, OptConfig(), gradient=None)),
    ("state", lambda: right_action(transposition(11, 0, 1))),
]


def test_every_row_is_exercised():
    assert {row for row, _ in REFUSALS} == set(CAPS)


def test_readme_cap_table_lists_every_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| Row | Covers |"):].split("\n\n")[0]
    rows = re.findall(r"^\s*\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert sorted(rows) == sorted(CAPS)


@pytest.mark.parametrize("row", CAPS)
def test_cap_itself_is_allowed(row):
    limits.check(row, CAPS[row].limit)


@pytest.mark.parametrize("row, call", REFUSALS, ids=[f"{row}-{i}" for i, (row, _) in enumerate(REFUSALS)])
def test_one_past_the_cap_is_refused_before_allocating(row, call):
    cap = CAPS[row]
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as refused:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    message = str(refused.value)
    assert message.startswith(f"{cap.what} of {cap.size.format(cap.limit + 1)} needs ")
    assert message.endswith(f"; cap is {cap.size.format(cap.limit)}")


def test_swap_hamiltonian_is_refused_before_its_loop():
    # one-hot sizes jump from 16 to 25 qubits, so none sits one past the cap
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="^statevector of 25 qubits needs "):
            swap_partial_hamiltonian(0, EncodingSpec(5, ONEHOT))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_messages_state_what_the_request_needs():
    expected = {
        "instance": "instance of 4097 cities needs 0.1 GiB; cap is 4096 cities",
        "state": "state of degree 11 needs 0.6 GiB a copy; cap is degree 10",
        "permutations": "permutation table of degree 12 needs 8.9 GiB; cap is degree 11",
        "statevector": "statevector of 18 qubits needs 4.0 MiB a copy; cap is 17 qubits",
        "parameters": "simplex of 4097 parameters needs 0.1 GiB a copy; cap is 4096 parameters",
    }
    for row, text in expected.items():
        with pytest.raises(TooLarge) as refused:
            limits.check(row, CAPS[row].limit + 1)
        assert str(refused.value) == text
    # far past any machine the amount is a power of ten, not an overflow
    with pytest.raises(TooLarge, match="needs about 10\\^616 bytes a copy; cap is degree 10$"):
        limits.check("state", 300)


def test_cost_vector_is_shared_and_read_only():
    inst = random_instance(6, seed=1)
    vec = TourCost(inst, reduced=True).vector()
    assert TourCost(inst, reduced=True).vector() is vec
    assert not vec.flags.writeable
    assert TourCost(inst).vector() is not vec
    tour, cost = optimum(inst, reduced=True)
    assert cost == vec.min() and rank(tour) == int(np.argmin(vec))
    # the cache is invisible to == and repr
    compared = [f.name for f in dataclasses.fields(inst) if f.compare]
    assert compared == ["w"]
    assert repr(inst) == f"TspInstance(w={inst.w!r})"
