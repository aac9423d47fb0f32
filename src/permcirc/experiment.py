"""End-to-end experiment runs: build a parametrised state preparation
for one method, optimise the tour-cost expectation, and record a trace.

Methods "bubble" and "binary-insertion" use the exhaustively
parametrised sequence circuit (one angle per sequence element, all-zero
start so the first trace row is the start tour itself); method "qaoa"
uses the sequential swap mixer with 2p angles.  Sequence angles and
mixer angles live on [0, pi) tori and are reduced periodically before
evaluation; phase-separator angles are unconstrained.  The optimiser's
stop rule reads the exact gradient of the expectation from one reverse
sweep over the same circuit (`feasible.expectation_gradient`).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .encoding import COMPACT, ONEHOT, EncodingSpec
from .feasible import (
    basis_state,
    circuit_steps,
    expectation,
    expectation_gradient,
    fidelity,
    reachability_params,
    run_exhaustive_circuit,
    run_steps,
)
from .optimize import OptConfig, OptTrace, approximation_ratio, minimize
from .perms import identity, unrank
from .qaoa import QaoaConfig, default_layers, initial_state, qaoa_steps
from .sequences import (
    BINARY_INSERTION,
    BUBBLE,
    GeneratingSequence,
    binary_insertion_sequence,
    bubble_sequence,
)
from .tsp import TourCost, TspInstance, optimum

METHODS = (BUBBLE, BINARY_INSERTION, "qaoa")
RATIO_MODES = ("opt-over-exp", "max-gap")


@dataclass
class RunSpec:
    """One experiment: instance, method, encoding, and solver settings."""

    instance: TspInstance
    method: str = BUBBLE
    encoding_kind: str = COMPACT
    reduced: bool = True
    qaoa: QaoaConfig | None = None
    opt: OptConfig = field(default_factory=OptConfig)
    ratio_mode: str = "opt-over-exp"
    random_init_seed: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.qaoa is not None and self.method != "qaoa":
            raise ValueError("qaoa settings given but method is not qaoa")
        if self.encoding_kind not in (ONEHOT, COMPACT):
            raise ValueError(f"unknown encoding {self.encoding_kind!r}")
        if self.ratio_mode not in RATIO_MODES:
            raise ValueError(f"unknown ratio mode {self.ratio_mode!r}; "
                             f"use {' or '.join(RATIO_MODES)}")
        # refused before any n!-sized array exists, the cost vector included
        degree = self.instance.n - 1 if self.reduced else self.instance.n
        if degree < 2:
            raise ValueError(f"a run needs at least {3 if self.reduced else 2} cities with "
                             f"reduced={self.reduced}, got {self.instance.n}")
        limits.check("state", degree)

    @property
    def encoding(self) -> EncodingSpec:
        return EncodingSpec(self.instance.n, self.encoding_kind, self.reduced)

    @property
    def degree(self) -> int:
        return self.encoding.degree


def build_sequence(method: str, degree: int) -> GeneratingSequence:
    if method == BUBBLE:
        return bubble_sequence(degree)
    if method == BINARY_INSERTION:
        return binary_insertion_sequence(degree)
    raise ValueError(f"no generating sequence for method {method!r}")


def _ratio_fn(spec: RunSpec, cost: TourCost, opt_cost: float):
    if spec.ratio_mode == "max-gap":
        vec = cost.vector()
        c_min, c_max = float(vec.min()), float(vec.max())
        return lambda v: approximation_ratio(v, opt_cost, "max-gap",
                                             c_min=c_min, c_max=c_max)
    return lambda v: approximation_ratio(v, opt_cost)


def _circuit(spec: RunSpec, vec: np.ndarray):
    """The run's state preparation: a factory for its initial state, the
    steps `run_steps` applies to that state, and each angle's period (None
    for an unconstrained phase angle).  The start tour is the identity."""
    degree = spec.degree
    start = identity(degree)
    if spec.method == "qaoa":
        cfg = spec.qaoa or QaoaConfig(default_layers(degree))
        return (lambda: initial_state(cfg, degree, start), qaoa_steps(vec, cfg, degree),
                [np.pi] * cfg.layers + [None] * cfg.layers)
    seq = build_sequence(spec.method, degree)
    return lambda: basis_state(start), circuit_steps(seq), [np.pi] * len(seq)


def run_experiment(spec: RunSpec) -> tuple[OptTrace, dict]:
    """Optimise the configured preparation; returns the trace and a
    summary with the quantities the CLI prints.  The objective, the
    stop-rule gradient and the final state all run one step list."""
    cost = TourCost(spec.instance, spec.reduced)
    vec = cost.vector()
    opt_perm, opt_cost = optimum(spec.instance, spec.reduced)
    initial, steps, periods = _circuit(spec, vec)
    num_params = len(periods)

    def objective(x):
        return expectation(run_steps(initial(), steps, x), vec)

    def gradient(x):
        return expectation_gradient(initial(), steps, x, vec)

    if spec.random_init_seed is None:
        x0 = np.zeros(num_params)
    else:
        rng = np.random.default_rng(spec.random_init_seed)
        x0 = rng.uniform(0, np.pi, num_params)

    began = time.perf_counter()
    trace = minimize(objective, x0, spec.opt, periods=periods,
                     ratio_fn=_ratio_fn(spec, cost, opt_cost), gradient=gradient)
    elapsed = time.perf_counter() - began

    final_state = run_steps(initial(), steps, trace.best_params)
    summary = {
        "method": spec.method,
        "encoding": spec.encoding_kind,
        "reduced": spec.reduced,
        "effective_degree": spec.degree,
        "parameters": num_params,
        "iterations": trace.iterations,
        "evaluations": trace.evaluations,
        "gradients": trace.gradients,
        "status": trace.status,
        "initial_objective": trace.points[0].value,
        "initial_ratio": trace.points[0].ratio,
        "final_objective": trace.best_value,
        "final_ratio": trace.points[-1].ratio,
        "optimal_cost": opt_cost,
        "optimal_tour": opt_perm,
        "wall_time_s": elapsed,
        "final_state": final_state,
    }
    return trace, summary


def reach_report(spec: RunSpec, target=None) -> dict:
    """Exact-reachability demonstration: angles pi*b/2 driving the start
    tour onto `target` (the exact optimum when omitted)."""
    if spec.method == "qaoa":
        raise ValueError("reach requires an exhaustively parametrised method")
    degree = spec.degree
    if target is None:
        target, _ = optimum(spec.instance, spec.reduced)
    if len(target) != degree:
        raise ValueError(f"target degree {len(target)} != effective degree {degree}")
    seq = build_sequence(spec.method, degree)
    thetas = reachability_params(seq, identity(degree), target)
    state = run_exhaustive_circuit(seq, thetas, identity(degree))
    return {
        "target": target,
        "mask": tuple(int(round(t / (np.pi / 2))) for t in thetas),
        "thetas": thetas,
        "fidelity": fidelity(state, target),
        "state": state,
    }


def top_k_rows(state, k: int) -> list[tuple[float, tuple[int, ...]]]:
    """The k most probable tours as (probability, permutation) rows,
    ordered by probability then rank."""
    probs = np.abs(state.amps) ** 2
    order = np.argsort(-probs, kind="stable")[:k]
    return [(float(probs[r]), unrank(int(r), state.n)) for r in order]


def trace_csv(trace: OptTrace, dump_params: bool = False) -> str:
    """iteration,objective,ratio CSV text; --dump-params appends one theta
    column per parameter.  Formatting is fixed, so identical runs give
    identical bytes."""
    lines = []
    header = "iteration,objective,ratio"
    if dump_params:
        d = trace.points[0].params.size
        header += "," + ",".join(f"theta_{i + 1}" for i in range(d))
    lines.append(header)
    for pt in trace.points:
        row = f"{pt.iteration},{pt.value!r},{pt.ratio!r}"
        if dump_params:
            row += "," + ",".join(repr(float(v)) for v in pt.params)
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: OptTrace, path, dump_params: bool = False) -> None:
    """Write `trace_csv(trace, dump_params)` to `path`."""
    with open(path, "w") as fh:
        fh.write(trace_csv(trace, dump_params))
