"""The worker team (`permcirc.workers`): steps on a state of more than
8 * `GATE_BLOCK` amplitudes share their blocks out among `WORKERS`
threads, with the amplitudes and gradients of one worker bit for bit;
smaller states start no thread."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import permcirc.feasible as feasible
import permcirc.workers as workers
from permcirc.checks import check_parallel_steps, gradient_cases
from permcirc.feasible import (
    Action,
    FeasibleState,
    apply_involution_exp,
    expectation_gradient,
    involution_action,
    run_steps,
)
from permcirc.perms import perm_table, rank_rows, transposition
from permcirc.qaoa import QaoaConfig, initial_state, qaoa_steps
from permcirc.tsp import TourCost, random_instance

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def team_blocks(monkeypatch):
    """The block counts of the steps that ran on a team, in order."""
    blocks = []
    run = workers._Team.run

    def recording(team, task, count):
        blocks.append(count)
        return run(team, task, count)

    monkeypatch.setattr(workers._Team, "run", recording)
    return blocks


def phased_uniform_state(n):
    amps = np.exp(1j * np.arange(factorial(n))) / np.sqrt(factorial(n))
    return FeasibleState(n, amps)


def test_parallel_steps_check(team_blocks):
    ok, detail = check_parallel_steps()
    assert ok, detail
    assert team_blocks and min(team_blocks) >= 9
    # the check leaves the block and the worker count as they were
    assert feasible.GATE_BLOCK == 20160 and workers.WORKERS >= 1
    # an action the check cached, and ran on one block and on blocks of
    # 7!/9, still gathers bit-identically on the default grid
    n, h = 7, transposition(7, 0, 1)
    hits = involution_action.cache_info().hits
    action = involution_action(h)
    assert involution_action.cache_info().hits == hits + 1
    assert (action.period, action.chunk) == (factorial(n), factorial(5))
    state = phased_uniform_state(n)
    table = rank_rows(perm_table(n)[:, list(h)], n)
    want = np.cos(0.9) * state.amps - 1j * np.sin(0.9) * state.amps[table]
    assert apply_involution_exp(state, action, 0.9).amps.tobytes() == want.tobytes()


def test_degree_9_team_matches_one_worker(monkeypatch, team_blocks):
    # 362 880 amplitudes, 18 blocks of 20 160 at the default block:
    # forward amplitudes of every circuit kind, and the gradients of
    # binary insertion and QAOA (a lone phase step, and phases in runs)
    n = 9
    rng = np.random.default_rng(9)
    cost = TourCost(random_instance(n + 1, seed=n), reduced=True)
    start = tuple(rng.permutation(n).tolist())
    for name, d, initial, steps, vec, _ in gradient_cases(cost, start):
        x = rng.uniform(0, 2 * np.pi, d)
        graded = name.startswith(("binary", "qaoa basis"))
        got = {}
        for size in (2, 1):
            monkeypatch.setattr(workers, "WORKERS", size)
            got[size] = [run_steps(initial(), steps, x).amps.tobytes()]
            if graded:
                got[size].append(expectation_gradient(initial(), steps, x, vec).tobytes())
        assert got[2] == got[1], name
    assert team_blocks and set(team_blocks) == {18}


def test_the_sweep_undoes_every_step_on_the_team(monkeypatch, team_blocks):
    # degree 7 in 14 blocks of 360 (GATE_BLOCK 7!/9, as check_parallel_steps
    # sets it): the sweep of a QAOA gradient undoes each of its steps,
    # phases as well as gates, in one step shared on the team
    n = 7
    monkeypatch.setattr(feasible, "GATE_BLOCK", factorial(n) // 9)
    monkeypatch.setattr(workers, "WORKERS", 2)
    cfg = QaoaConfig(2, "uniform", slot_wraparound=True)
    cost = TourCost(random_instance(n + 1, seed=n), reduced=True)
    vec = cost.vector()
    steps = qaoa_steps(cost.phase(), cfg, n)
    thetas = np.random.default_rng(n).uniform(0, 2 * np.pi, 2 * cfg.layers)
    assert any(not isinstance(g, Action) for g, _ in steps)
    run_steps(initial_state(cfg, n), steps, thetas)
    forward = len(team_blocks)
    assert forward and set(team_blocks) == {14}
    team_blocks.clear()
    expectation_gradient(initial_state(cfg, n), steps, thetas, vec)
    assert len(team_blocks) == forward + len(steps)
    assert set(team_blocks) == {14}


def bad_copy(action, rank, value):
    """`action` with the chunk rank that moves local rank `rank` of a
    period set to `value`, built directly so that `Action.of` does not
    refuse it."""
    index = action.index.copy()
    index[rank % action.period // action.chunk] = value
    return Action(action.n, action.period, action.chunk, index)


@pytest.mark.parametrize("position", [0, 300, 719])
def test_a_bad_head_raises_from_the_team_and_the_team_stays_usable(
        monkeypatch, team_blocks, position):
    # degree 6 in 30 blocks of 24 (GATE_BLOCK 50): the bad chunk rank of a
    # gate on positions 0..1 (a period of the whole table in 30 chunks of
    # 24 ranks, one a block) fails one block; the bad chunk rank of a local
    # gate (a period of 24 ranks, one a block, in 12 chunks of 2) fails
    # every block of a run
    monkeypatch.setattr(feasible, "GATE_BLOCK", 50)
    monkeypatch.setattr(workers, "WORKERS", 2)
    n = 6
    state = phased_uniform_state(n)
    spare = FeasibleState(n, np.empty_like(state.amps))
    wide = involution_action(transposition(n, 0, 1))
    local = involution_action(transposition(n, 2, 3))
    assert (wide.period, wide.chunk, len(wide.index)) == (720, 24, 30)
    assert (local.period, local.chunk, len(local.index)) == (24, 2, 12)
    steps = [(local, 0), (wide, 1), (local, 0)]
    x = np.array([0.3, 1.1])
    monkeypatch.setattr(workers, "WORKERS", 1)
    want_gate = apply_involution_exp(state, wide, 0.7).amps.tobytes()
    want_run = run_steps(phased_uniform_state(n), steps, x).amps.tobytes()
    monkeypatch.setattr(workers, "WORKERS", 2)
    for bad_steps in ([(bad_copy(wide, position, 30), 0)],
                      [(bad_copy(local, position, 10 ** 6), 0)],
                      [(local, 0), (bad_copy(local, position, -10 ** 6), 0)]):
        bad = bad_steps[-1][0]
        with pytest.raises(IndexError):
            if bad.period == 720:
                apply_involution_exp(state, bad, 0.7, out=spare)
            else:
                run_steps(phased_uniform_state(n), bad_steps, np.array([0.3]))
        # no thread is left at the barrier: the next gate and run are whole
        assert apply_involution_exp(state, wide, 0.7).amps.tobytes() == want_gate
        assert run_steps(phased_uniform_state(n), steps, x).amps.tobytes() == want_run
    assert team_blocks


def test_a_worker_exception_is_raised_in_the_caller():
    # the caller holds block 0 until a worker has raised in block 1
    team = workers._team(2)
    raised = threading.Event()
    done = []

    def task(t):
        if threading.current_thread() is threading.main_thread():
            assert raised.wait(timeout=30)
        else:
            raised.set()
            raise ValueError(f"block {t}")
        done.append(t)

    for _ in range(3):
        raised.clear()
        with pytest.raises(ValueError, match="^block 1$"):
            team.run(task, 2)
    assert done == [0, 0, 0]
    # held by this thread, the team turns a nested step away
    nested = []
    assert team.run(lambda t: nested.append(team.run(lambda u: None, 1)), 1)
    assert nested == [False]


def test_an_interrupt_returns_once_the_team_is_done(monkeypatch):
    # the caller's block raises KeyboardInterrupt while the worker is mid
    # block: `run` re-raises only after that block has finished and the
    # worker has exited, and no thread dies of an uncaught exception
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    team = workers._Team(2)
    started = threading.Event()
    finished = []

    def task(t):
        if threading.current_thread() is threading.main_thread():
            assert started.wait(timeout=30)
            raise KeyboardInterrupt
        started.set()
        time.sleep(0.2)
        finished.append(t)

    with pytest.raises(KeyboardInterrupt):
        team.run(task, 2)
    assert len(finished) == 1 and team._job is None
    assert not any(thread.is_alive() for thread in team._threads) and team.broken
    assert hooked == []


def test_the_team_hands_out_every_block_once():
    # more threads than CPUs, switching as often as the interpreter
    # allows: a ticket handed out twice, or lost, shows in the counts
    team = workers._team(4)
    hits = [0] * 3000
    rounds = 20
    failures = []

    def step(t):
        hits[t] += 1

    def drive():
        try:
            for _ in range(rounds):
                assert team.run(step, len(hits))
        except BaseException as e:  # reported by the main thread
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        driver = threading.Thread(target=drive)
        driver.start()
        driver.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not driver.is_alive() and not failures
    assert hits == [rounds] * len(hits)


def test_a_team_step_holds_one_gathered_block_a_worker(monkeypatch):
    # degree 9 with 3 workers: a gate with `out` allocates no state, a run
    # one spare state and the sweep three, each with at most one gathered
    # block of GATE_BLOCK amplitudes on each worker, and a phase step its
    # two exp tables (3 024 + 504 x 120 entries); the allowance covers the
    # interpreter's small objects
    monkeypatch.setattr(workers, "WORKERS", 3)
    n = 9
    cfg = QaoaConfig(2, "uniform", slot_wraparound=False)
    cost = TourCost(random_instance(n + 1, seed=4), reduced=True)
    vec = cost.vector()
    steps = qaoa_steps(cost.phase(), cfg, n)
    thetas = np.random.default_rng(4).uniform(0, 2 * np.pi, 2 * cfg.layers)
    action = involution_action(transposition(n, 0, 1))
    state = initial_state(cfg, n)
    spare = FeasibleState(n, np.empty_like(state.amps))
    state_bytes, held = state.amps.nbytes, 3 * feasible.GATE_BLOCK * 16 + 16384
    table_bytes = 16 * (cost.phase().head.size + cost.phase().tail.size)
    # (states the call allocates, its exp tables, the call): the run and
    # the sweep also allocate their initial state
    calls = [(0, 0, lambda: apply_involution_exp(state, action, 0.4, out=spare)),
             (2, table_bytes, lambda: run_steps(initial_state(cfg, n), steps, thetas)),
             (4, table_bytes, lambda: expectation_gradient(initial_state(cfg, n), steps, thetas, vec))]
    for states, tables, call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < states * state_bytes + tables + held, states


def test_no_thread_starts_below_the_threshold():
    # degrees 6 and 8 (sweep7's and protocol9's sizes) with two workers
    # allowed: every circuit kind forward, its gradient and a Circuit
    code = """
import sys, threading
import numpy as np
before = threading.active_count()
import permcirc
from permcirc import feasible, qaoa, sequences, workers
from permcirc.tsp import TourCost, random_instance
workers.WORKERS = 2
for n in (6, 8):
    cost = TourCost(random_instance(n + 1, seed=n), reduced=True)
    vec = cost.vector()
    cases = [(feasible.basis_state(tuple(range(n))), feasible.circuit_steps(build(n)))
             for build in (sequences.bubble_sequence, sequences.binary_insertion_sequence)]
    for wrap in (True, False):
        cfg = qaoa.QaoaConfig(qaoa.default_layers(n), "uniform", wrap)
        cases.append((qaoa.initial_state(cfg, n), qaoa.qaoa_steps(cost.phase(), cfg, n)))
    for initial, steps in cases:
        x = np.full(1 + max(k for _, k in steps), 0.3)
        feasible.run_steps(feasible.FeasibleState(n, initial.amps.copy()), steps, x)
        feasible.expectation_gradient(feasible.FeasibleState(n, initial.amps.copy()), steps, x, vec)
        circuit = feasible.Circuit(initial, steps, vec)
        circuit.value(x)
        circuit.gradient(x)
assert threading.active_count() == before, threading.enumerate()
assert "concurrent.futures" not in sys.modules
print("ok")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_a_forked_child_gets_a_team_of_its_own():
    # the parent's team threads do not run in a forked child: the child's
    # first step starts a new team instead of waiting at the old barrier
    team = workers._team(2)
    assert team.run(lambda t: None, 4)

    def child():
        hits = [0] * 50

        def step(t):
            hits[t] += 1

        assert workers._team(2) is not team
        assert workers._team(2).run(step, len(hits))
        os._exit(0 if hits == [1] * len(hits) else 1)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    try:
        process.join(timeout=60)
    finally:
        if process.is_alive():
            process.kill()
            process.join()
    assert process.exitcode == 0
