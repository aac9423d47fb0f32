"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).
"""

import functools
import time

import numpy as np
import pytest

from permcirc.checks import (
    check_ancilla_circuit,
    check_cross_simulator,
    check_generating,
    check_mixer_oracle,
    check_mixing_condition,
    check_optimizer,
    check_prefix_products,
    check_reachability,
    check_sequence_shapes,
)
from permcirc.experiment import RunSpec, reach_report, run_experiment
from permcirc.optimize import OptConfig
from permcirc.perms import rank
from permcirc.qaoa import QaoaConfig
from permcirc.sequences import binary_insertion_sequence, bubble_sequence
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
    # from the identity to every tour up to n = 5, else 100 sampled tours
    began = time.perf_counter()
    ok, detail = check_reachability(range(4, 9), all_starts=(), extra_starts=(),
                                    samples=100, seed=2024)
    assert ok, detail
    assert time.perf_counter() - began < 30.0


@criterion("sequence lengths for n <= 12; 28 and 17 parameters at n = 8")
def test_sequence_lengths():
    ok, detail = check_sequence_shapes(range(1, 13))
    assert ok, detail
    assert len(bubble_sequence(8)) == 28
    assert len(binary_insertion_sequence(8)) == 17


@criterion("generating property for n = 2..6 by exhaustive enumeration, < 60 s")
def test_generating_property():
    began = time.perf_counter()
    ok, detail = check_generating(range(2, 7), exhaustive=range(2, 7))
    assert ok, detail
    assert time.perf_counter() - began < 60.0


@criterion("first-image prefix-product identity for all n <= 16")
def test_prefix_product_identity():
    ok, detail = check_prefix_products(16)
    assert ok, detail


@criterion("cross-simulator agreement and zero infeasible mass, n = 3..4")
def test_cross_simulator_oracle():
    ok, detail = check_cross_simulator(circuits=100, seed=99)
    assert ok, detail


@criterion("one-ancilla exponential circuit, 50 random trials at n = 3")
def test_ancilla_construction():
    ok, detail = check_ancilla_circuit(trials=50, seed=7)
    assert ok, detail


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
