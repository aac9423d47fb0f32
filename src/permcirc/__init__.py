"""Feasible-subspace simulation of permutation-sequence variational
circuits for the travelling salesperson problem, with a sequential
swap-mixer QAOA baseline and brute-force oracles at small sizes."""

from .encoding import COMPACT, ONEHOT, EncodingSpec, Infeasible, decode, encode, is_feasible, subregister_swap
from .experiment import RunSpec, reach_report, run_experiment, write_trace_csv
from .feasible import (
    FeasibleState,
    Phase,
    apply_involution_exp,
    apply_phase,
    basis_state,
    expectation,
    fidelity,
    involution_action,
    probabilities,
    reachability_params,
    run_exhaustive_circuit,
    sample,
    uniform_feasible_state,
)
from .limits import TooLarge
from .optimize import OptConfig, OptTrace, approximation_ratio, minimize
from .perms import (
    Perm,
    compose,
    format_perm,
    identity,
    inverse,
    inversion_number,
    parse_perm,
    rank,
    transposition,
    unrank,
)
from .qaoa import QaoaConfig, default_layers, mixer_slot_action, run_qaoa
from .sequences import (
    BINARY_INSERTION,
    BUBBLE,
    GeneratingSequence,
    NotDecomposable,
    binary_insertion_sequence,
    bubble_sequence,
    decompose,
    min_adjacency_length,
    recompose,
    verify_generating,
)
from .tsp import TourCost, TspInstance, load_instance, optimum, random_instance, save_instance, tour_cost

__version__ = "0.1.0"
