"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).
"""

import functools
import time
from math import ceil, log2

import numpy as np
import pytest

from permcirc.checks import (
    check_mixer_oracle,
    check_mixing_condition,
    check_optimizer,
    check_prefix_products,
)
from permcirc.encoding import COMPACT, ONEHOT, EncodingSpec, encode
from permcirc.experiment import RunSpec, reach_report, run_experiment
from permcirc.feasible import (
    apply_involution_exp,
    basis_state,
    fidelity,
    involution_action,
    reachability_params,
    run_exhaustive_circuit,
)
from permcirc.fullstate import (
    ancilla_exponential_check,
    apply_swap_involution_exp,
    basis_statevector,
    project_feasible,
)
from permcirc.optimize import OptConfig
from permcirc.perms import all_perms, identity, rank
from permcirc.qaoa import QaoaConfig
from permcirc.sequences import binary_insertion_sequence, bubble_sequence, verify_generating
from permcirc.tsp import random_instance


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")

        return wrapper

    return decorate


@criterion("exact reachability, n = 4..8, both sequences, < 30 s")
def test_exact_reachability():
    began = time.perf_counter()
    rng = np.random.default_rng(2024)
    for n in range(4, 9):
        if n <= 5:
            targets = list(all_perms(n))
        else:
            targets = [tuple(rng.permutation(n).tolist()) for _ in range(100)]
        for build in (bubble_sequence, binary_insertion_sequence):
            seq = build(n)
            start = identity(n)
            for target in targets:
                thetas = reachability_params(seq, start, target)
                state = run_exhaustive_circuit(seq, thetas, start)
                assert abs(fidelity(state, target) - 1.0) <= 1e-10
    assert time.perf_counter() - began < 30.0


@criterion("sequence lengths for n <= 12; 28 and 17 parameters at n = 8")
def test_sequence_lengths():
    for n in range(1, 13):
        assert len(bubble_sequence(n)) == n * (n - 1) // 2
        assert len(binary_insertion_sequence(n)) == sum(
            ceil(log2(i)) for i in range(2, n + 1)
        )
    assert len(bubble_sequence(8)) == 28
    assert len(binary_insertion_sequence(8)) == 17


@criterion("generating property for n = 2..6 by exhaustive enumeration, < 60 s")
def test_generating_property():
    began = time.perf_counter()
    for n in range(2, 7):
        for build in (bubble_sequence, binary_insertion_sequence):
            report = verify_generating(build(n))
            assert report.generating, f"{build.__name__} n={n}: {report}"
    assert time.perf_counter() - began < 60.0


@criterion("first-image prefix-product identity for all n <= 16")
def test_prefix_product_identity():
    ok, detail = check_prefix_products(16)
    assert ok, detail


@criterion("cross-simulator agreement and zero infeasible mass, n = 3..4")
def test_cross_simulator_oracle():
    rng = np.random.default_rng(99)
    for n in (3, 4):
        pool = list(
            set(bubble_sequence(n).elements)
            | set(binary_insertion_sequence(n).elements)
        )
        for kind in (ONEHOT, COMPACT):
            spec = EncodingSpec(n, kind)
            for _ in range(100):
                start = tuple(rng.permutation(n).tolist())
                feas = basis_state(start)
                sv = basis_statevector(encode(start, spec))
                for _ in range(20):
                    h = pool[rng.integers(len(pool))]
                    theta = rng.uniform(0, 2 * np.pi)
                    feas = apply_involution_exp(
                        feas, involution_action(h, "right"), theta
                    )
                    sv = apply_swap_involution_exp(sv, h, spec, theta)
                projected, mass = project_feasible(sv, spec)
                assert mass <= 1e-12
                assert np.max(np.abs(projected.amps - feas.amps)) <= 1e-10


@criterion("one-ancilla exponential circuit, 50 random trials at n = 3")
def test_ancilla_construction():
    spec = EncodingSpec(3, COMPACT)
    elements = list(
        set(bubble_sequence(3).elements) | set(binary_insertion_sequence(3).elements)
    )
    rng = np.random.default_rng(7)
    for k in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        element = elements[k % len(elements)]
        # includes the ancilla |1> residual, capped tighter below
        deviation = ancilla_exponential_check(
            element, spec, theta, trials=1, seed=int(rng.integers(2**31))
        )
        assert deviation <= 1e-10
    # residual check at a fixed angle on a fresh state
    from permcirc.fullstate import StateVector, ancilla_exponential_circuit

    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    amps /= np.linalg.norm(amps)
    joint = ancilla_exponential_circuit(
        StateVector(6, amps), elements[0], spec, 0.83
    )
    assert float(np.sum(np.abs(joint[:, 1]) ** 2)) <= 1e-12


@criterion("Taylor exponential of the raw mixer matches the slot swap, n = 3")
def test_mixer_restriction():
    ok, detail = check_mixer_oracle()
    assert ok, detail


@criterion("mixing condition witnessed for every basis pair at n = 4, r <= 6")
def test_mixing_condition():
    ok, detail = check_mixing_condition()
    assert ok, detail


@criterion("experiment protocol: four variants on a 9-city instance + exact reach")
def test_experiment_protocol():
    inst = random_instance(9, seed=7)
    opt_cfg = OptConfig(max_iters=30, grad_window=5)
    variants = [
        RunSpec(inst, method="bubble", opt=opt_cfg),
        RunSpec(inst, method="binary-insertion", opt=opt_cfg),
        RunSpec(inst, method="qaoa", opt=opt_cfg),
        RunSpec(inst, method="qaoa", opt=opt_cfg, qaoa=QaoaConfig(4, initial="uniform")),
    ]
    for spec in variants:
        assert spec.encoding.num_bits == 24  # reduced compact: 8 slots of 3 bits
        trace, summary = run_experiment(spec)
        assert summary["status"] in ("gradient-window", "max-iters")
        assert summary["final_ratio"] >= summary["initial_ratio"] - 1e-12
        ratios = [p.ratio for p in trace.points]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    report = reach_report(RunSpec(inst, method="binary-insertion"))
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)
    probs = np.abs(report["state"].amps) ** 2
    assert probs[rank(report["target"])] == pytest.approx(1.0, abs=1e-10)


@criterion("optimizer sanity: quadratic bowl to 1e-4, reproducible traces")
def test_optimizer_sanity():
    ok, detail = check_optimizer()
    assert ok, detail
