from math import factorial

import numpy as np
import pytest

from permcirc.feasible import (
    Phase,
    basis_state,
    expectation_gradient,
    probabilities,
    run_steps,
    uniform_feasible_state,
)
from permcirc.perms import compose, identity, rank, transposition, unrank
from permcirc.qaoa import (
    QaoaConfig,
    default_layers,
    initial_state,
    mixer_slot_action,
    mixer_slots,
    qaoa_steps,
    run_qaoa,
)
from permcirc.tsp import TourCost, random_instance


def sweep(state, beta, slots):
    """One mixer sweep over the slot actions `slots`, in order, on angle
    `beta`; `state` is overwritten."""
    return run_steps(state, [(action, 0) for action in slots], [beta])


def images(action):
    """The action's whole rank table."""
    return action.take(np.arange(factorial(action.n)))


def test_config_validation():
    with pytest.raises(ValueError):
        QaoaConfig(0)
    with pytest.raises(ValueError):
        QaoaConfig(1, initial="thermal")


def test_default_layers_matches_circuit_length():
    # ceil((degree - 1) / 2), the circuit-length parity rule
    assert default_layers(8) == 4
    assert default_layers(7) == 3
    assert default_layers(2) == 1


def test_mixer_slot_action_exchanges_adjacent_slots():
    action = images(mixer_slot_action(0, 3))
    assert unrank(int(action[rank(identity(3))]), 3) == (1, 0, 2)
    for t in range(3):
        a = images(mixer_slot_action(t, 3))
        assert np.array_equal(a[a], np.arange(6))


def test_mixer_wraparound_slot():
    action = images(mixer_slot_action(3, 4, wraparound=True))
    assert unrank(int(action[rank(identity(4))]), 4) == compose(
        identity(4), transposition(4, 0, 3)
    )
    with pytest.raises(ValueError):
        mixer_slot_action(3, 4, wraparound=False)
    with pytest.raises(ValueError):
        mixer_slot_action(4, 4)


def test_seq_mixer_zero_angle():
    out = sweep(uniform_feasible_state(4), 0.0, mixer_slots(4))
    assert np.allclose(out.amps, uniform_feasible_state(4).amps)


def test_seq_mixer_half_pi_permutes_basis():
    # at beta = pi/2 every factor is -i times its slot swap, so a basis
    # state lands on the ordered-product image with unit probability
    n = 4
    start = (2, 0, 3, 1)
    state = sweep(basis_state(start), np.pi / 2, mixer_slots(n))
    r = rank(start)
    for t in range(n):
        r = int(images(mixer_slot_action(t, n))[r])
    probs = probabilities(state)
    assert probs[r] == pytest.approx(1.0, abs=1e-12)


def test_seq_mixer_order_matters():
    # ascending and descending slot orders differ at generic beta
    n, beta = 3, 0.6
    ascending = sweep(basis_state(identity(n)), beta, mixer_slots(n))
    descending = sweep(basis_state(identity(n)), beta, mixer_slots(n)[::-1])
    overlap = abs(np.vdot(ascending.amps, descending.amps))
    assert overlap < 1 - 1e-6


def test_run_qaoa_zero_angles_is_initial():
    inst = random_instance(4, seed=1)
    cost = TourCost(inst)
    cfg = QaoaConfig(1)
    out = run_qaoa(cost, cfg, [0.0], [0.0], identity(4))
    assert np.allclose(out.amps, basis_state(identity(4)).amps)
    with pytest.raises(ValueError):
        run_qaoa(cost, cfg, [0.0, 0.0], [0.0], identity(4))


def test_start_of_another_degree_is_refused():
    cost = TourCost(random_instance(4, seed=1), reduced=True)
    for initial in ("basis", "uniform"):
        with pytest.raises(ValueError, match="^start tour has degree 4, circuit degree 3$"):
            run_qaoa(cost, QaoaConfig(1, initial), [0.1], [0.2], identity(4))


def test_run_qaoa_preserves_norm():
    inst = random_instance(5, seed=2)
    cost = TourCost(inst)
    cfg = QaoaConfig(3)
    rng = np.random.default_rng(0)
    out = run_qaoa(cost, cfg, rng.uniform(0, np.pi, 3), rng.uniform(0, 2, 3))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_uniform_initial_zero_mixer_keeps_probabilities_uniform():
    inst = random_instance(4, seed=3)
    cost = TourCost(inst)
    cfg = QaoaConfig(2, initial="uniform")
    out = run_qaoa(cost, cfg, [0.0, 0.0], [0.8, 1.7])
    assert np.allclose(probabilities(out), 1.0 / factorial(4), atol=1e-12)


def test_initial_state_variants():
    cfg = QaoaConfig(1, initial="uniform")
    assert np.allclose(
        initial_state(cfg, 3).amps, uniform_feasible_state(3).amps
    )
    cfg = QaoaConfig(1)
    start = (1, 2, 0)
    assert initial_state(cfg, 3, start).amps[rank(start)] == 1.0


def test_integer_costs_run_as_their_float_copy():
    # an integer cost vector runs as a phase, through its float64 copy
    cfg = QaoaConfig(1, initial="uniform")
    angles = np.array([0.3, 0.7])
    runs = []
    for cost in (np.arange(24), np.arange(24.0)):
        steps = qaoa_steps(Phase.of(cost), cfg, 4)
        state = run_steps(initial_state(cfg, 4), steps, angles)
        grad = expectation_gradient(initial_state(cfg, 4), steps, angles, np.arange(24.0))
        runs.append((state.amps, grad))
    (ints, int_grad), (floats, float_grad) = runs
    assert np.array_equal(ints, floats)
    assert np.array_equal(int_grad, float_grad)
    assert float_grad[1] != 0  # the phase step acts


def test_float_costs_are_not_copied():
    cost = np.arange(24.0)
    phase = Phase.of(cost)
    assert phase.cost is cost
    assert qaoa_steps(phase, QaoaConfig(1), 4)[0][0] is phase
