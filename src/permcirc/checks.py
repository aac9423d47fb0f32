"""Self-contained invariant checks behind the `verify` subcommand.

Each check re-derives an expected result from an independent angle
(exhaustive enumeration, closed forms, Taylor-series exponentials) and
compares it against the production code path.  The quick level covers
the combinatorial core in a few seconds; the full level adds the
full-statevector cross-validation at small sizes.
"""

import time
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import encoding as enc
from . import feasible as fs
from . import fullstate as full
from . import qaoa as qa
from .optimize import OptConfig, minimize
from .perms import (
    all_perms,
    compose,
    identity,
    inversion_number,
    perm_table,
    rank,
    rank_rows,
    transposition,
    unrank,
)
from .sequences import (
    BINARY_INSERTION,
    BUBBLE,
    GeneratingSequence,
    _insertion_block,
    binary_insertion_sequence,
    bubble_sequence,
    check_sequence,
    decompose,
    recompose,
    verify_generating,
)
from .tsp import TourCost, optimum, random_instance, tour_cost


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _mult_table(n: int) -> np.ndarray:
    table = perm_table(n)
    out = np.empty((factorial(n), factorial(n)), dtype=np.int64)
    for a in range(factorial(n)):
        rows = table[a][table]
        out[a] = rank_rows(rows)
    return out


def check_perm_core() -> tuple[bool, str]:
    # associativity over all of S_4 via the multiplication table
    m = _mult_table(4)
    if not np.array_equal(m[m][:, :, :], m[:, m][:, :, :]):
        return False, "composition is not associative on S_4"
    for n in range(1, 7):
        ranks = {rank(p) for p in all_perms(n)}
        if ranks != set(range(factorial(n))):
            return False, f"rank is not a bijection on S_{n}"
        if any(unrank(rank(p), n) != p for p in all_perms(n)):
            return False, f"unrank(rank(.)) != id on S_{n}"
    for n in range(2, 6):
        for p in all_perms(n):
            for j in range(n - 1):
                delta = inversion_number(compose(p, transposition(n, j, j + 1)))
                if abs(delta - inversion_number(p)) != 1:
                    return False, "adjacent swap changed inversions by != 1"
    return True, "associativity, rank bijection, inversion steps"


def check_sequence_shapes() -> tuple[bool, str]:
    for n in range(1, 13):
        for build, kind in ((bubble_sequence, BUBBLE),
                            (binary_insertion_sequence, BINARY_INSERTION)):
            problems = check_sequence(build(n))
            if problems:
                return False, f"{kind} n={n}: {problems[0]}"
    return True, "lengths and involutions for n <= 12"


def check_generating(n_max: int = 5) -> tuple[bool, str]:
    for n in range(2, n_max + 1):
        for build in (bubble_sequence, binary_insertion_sequence):
            seq = build(n)
            report = verify_generating(seq)
            if not report:
                return False, (
                    f"{seq.kind} n={n}: {len(report.unreachable)} of "
                    f"{report.group_order} unreachable"
                )
    return True, f"exhaustive product enumeration for n <= {n_max}"


def check_decompose_roundtrip() -> tuple[bool, str]:
    for n in range(1, 6):
        for build in (bubble_sequence, binary_insertion_sequence):
            seq = build(n)
            for g in all_perms(n):
                if recompose(seq, decompose(seq, g)) != g:
                    return False, f"{seq.kind} n={n}: roundtrip failed at {g}"
    rng = np.random.default_rng(7)
    for n in range(6, 10):
        seqs = (bubble_sequence(n), binary_insertion_sequence(n))
        for _ in range(1000):
            g = tuple(rng.permutation(n).tolist())
            for seq in seqs:
                if recompose(seq, decompose(seq, g)) != g:
                    return False, f"{seq.kind} n={n}: roundtrip failed at {g}"
    return True, "exhaustive n <= 5, 1000 random samples for 6 <= n <= 9"


def check_prefix_products(n_max: int = 16) -> tuple[bool, str]:
    # first-image prefix identity behind the binary-insertion decompose
    for n in range(2, n_max + 1):
        nbits = max(1, (n - 1).bit_length())
        for v in range(n):
            digits = [(v >> k) & 1 for k in range(nbits)]
            g = identity(n)
            acc = 0
            for level in range(1, nbits + 1):
                if digits[level - 1]:
                    g = compose(_insertion_block(n, level), g)
                    acc += 1 << (level - 1)
                if g[0] != acc:
                    return False, f"n={n}, v={v}: prefix image {g[0]} != {acc}"
            if g[0] != v:
                return False, f"n={n}: full product sends 0 to {g[0]}, not {v}"
    return True, f"first-image prefix identity for n <= {n_max}"


def check_encoding_roundtrip() -> tuple[bool, str]:
    for n in range(1, 6):
        for kind in (enc.ONEHOT, enc.COMPACT):
            for reduced in (False, True):
                if reduced and n < 2:
                    continue
                spec = enc.EncodingSpec(n, kind, reduced)
                for p in all_perms(spec.degree):
                    bits = enc.encode(p, spec)
                    if not enc.is_feasible(bits, spec):
                        return False, f"{spec}: encode({p}) infeasible"
                    if enc.decode(bits, spec) != p:
                        return False, f"{spec}: decode(encode({p})) mismatch"
    counts = [
        (enc.EncodingSpec(3, enc.ONEHOT), 6),
        (enc.EncodingSpec(4, enc.COMPACT), 24),
        (enc.EncodingSpec(3, enc.COMPACT), 6),
    ]
    for spec, want in counts:
        got = sum(enc.is_feasible(b, spec) for b in enc.all_bitstrings(spec.num_bits))
        if got != want:
            return False, f"{spec}: {got} feasible strings, expected {want}"
    return True, "round trips for n <= 5 and exhaustive feasible counts"


def check_subregister_action() -> tuple[bool, str]:
    for n in (3, 4):
        elements = set(bubble_sequence(n).elements) | set(
            binary_insertion_sequence(n).elements
        )
        for kind in (enc.ONEHOT, enc.COMPACT):
            spec = enc.EncodingSpec(n, kind)
            for h in elements:
                for p in all_perms(n):
                    via_bits = enc.subregister_swap(enc.encode(p, spec), h, spec)
                    if via_bits != enc.encode(compose(p, h), spec):
                        return False, f"{kind} n={n}: swap != right action at {p}"
    return True, "bit-level swap equals right action through the encoding, n <= 4"


def check_tour_costs() -> tuple[bool, str]:
    inst = random_instance(5, seed=11)
    for p in all_perms(5):
        c = tour_cost(inst, p)
        rotated = p[1:] + p[:1]
        if abs(tour_cost(inst, rotated) - c) > 1e-9:
            return False, f"cyclic rotation changed the cost of {p}"
    for n in range(3, 7):
        inst = random_instance(n, seed=n)
        if abs(optimum(inst, False)[1] - optimum(inst, True)[1]) > 1e-9:
            return False, f"reduced and full optimum differ at n={n}"
    return True, "cyclic invariance and reduced/full optimum agreement"


def check_reachability() -> tuple[bool, str]:
    for n, starts in ((4, list(all_perms(4))), (5, [identity(5), (2, 0, 4, 1, 3)])):
        for build in (bubble_sequence, binary_insertion_sequence):
            seq = build(n)
            for start in starts:
                for target in all_perms(n):
                    thetas = fs.reachability_params(seq, start, target)
                    state = fs.run_exhaustive_circuit(seq, thetas, start)
                    if abs(fs.fidelity(state, target) - 1) > 1e-10:
                        return False, f"{seq.kind} n={n}: fidelity < 1 for {target}"
    return True, "unit fidelity for every target (n=4 all starts, n=5 sampled)"


def check_norm_preservation() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    n = 5
    seq = bubble_sequence(n)
    state = fs.uniform_feasible_state(n)
    for k in range(1000):
        h = seq.elements[rng.integers(len(seq.elements))]
        state = fs.apply_involution_exp(
            state, fs.involution_action(h, "right"), rng.uniform(0, 2 * np.pi)
        )
        if abs(state.norm() - 1) > 1e-10:
            return False, f"norm drifted after {k + 1} gates"
    return True, "norm 1 within 1e-10 through 1000 random gates"


def check_optimizer() -> tuple[bool, str]:
    target = 0.3

    def bowl(x):
        return float(np.sum((x - target) ** 2))

    def bowl_gradient(x):
        return 2 * (x - target)

    trace = minimize(bowl, np.zeros(4), OptConfig(), gradient=bowl_gradient)
    err = float(np.max(np.abs(trace.best_params - target)))
    if err > 1e-4:
        return False, f"quadratic bowl missed by {err:.2e}"
    repeat = minimize(bowl, np.zeros(4), OptConfig(), gradient=bowl_gradient)
    same = len(trace.points) == len(repeat.points) and all(
        a.value == b.value and (a.params == b.params).all()
        for a, b in zip(trace.points, repeat.points)
    )
    if not same:
        return False, "repeated run produced a different trace"
    return True, f"bowl recovered to {err:.1e}; traces reproducible"


def check_cross_simulator(circuits: int = 20) -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    for n in (3, 4):
        pool = list(
            set(bubble_sequence(n).elements)
            | set(binary_insertion_sequence(n).elements)
        )
        for kind in (enc.ONEHOT, enc.COMPACT):
            spec = enc.EncodingSpec(n, kind)
            for _ in range(circuits):
                start = tuple(rng.permutation(n).tolist())
                feas = fs.basis_state(start)
                sv = full.basis_statevector(enc.encode(start, spec))
                for _ in range(20):
                    h = pool[rng.integers(len(pool))]
                    theta = rng.uniform(0, 2 * np.pi)
                    feas = fs.apply_involution_exp(
                        feas, fs.involution_action(h, "right"), theta
                    )
                    sv = full.apply_swap_involution_exp(sv, h, spec, theta)
                projected, mass = full.project_feasible(sv, spec)
                if mass > 1e-12:
                    return False, f"{kind} n={n}: infeasible mass {mass:.2e}"
                if np.max(np.abs(projected.amps - feas.amps)) > 1e-10:
                    return False, f"{kind} n={n}: amplitude mismatch"
    return True, f"{circuits} random 20-gate circuits per size and encoding"


def check_ancilla_circuit(trials: int = 50) -> tuple[bool, str]:
    spec = enc.EncodingSpec(3, enc.COMPACT)
    elements = list(
        set(bubble_sequence(3).elements) | set(binary_insertion_sequence(3).elements)
    )
    rng = np.random.default_rng(23)
    worst = 0.0
    for k in range(trials):
        theta = rng.uniform(0, 2 * np.pi)
        element = elements[k % len(elements)]
        worst = max(
            worst,
            full.ancilla_exponential_check(element, spec, theta, trials=1,
                                           seed=int(rng.integers(2**31))),
        )
    if worst > 1e-10:
        return False, f"ancilla construction deviates by {worst:.2e}"
    return True, f"max deviation {worst:.1e} over {trials} trials"


def check_mixer_oracle() -> tuple[bool, str]:
    spec = enc.EncodingSpec(3, enc.ONEHOT)
    n = 3
    for slot in range(n):
        H = full.swap_partial_hamiltonian(slot, spec)
        action = qa.mixer_slot_action(slot, n)
        for beta in (0.3, np.pi / 4, 1.2):
            for p in all_perms(n):
                sv = full.basis_statevector(enc.encode(p, spec))
                out = full.taylor_expm_apply(H, beta, sv)
                swapped = unrank(int(action[rank(p)]), n)
                want = np.zeros_like(out.amps)
                want[full.bits_to_index(enc.encode(p, spec))] = np.cos(beta)
                want[full.bits_to_index(enc.encode(swapped, spec))] += -1j * np.sin(beta)
                if np.max(np.abs(out.amps - want)) > 1e-8:
                    return False, f"slot {slot}, beta {beta}: Taylor mismatch"
    return True, "Taylor exponential matches the slot-swap action on all feasible states"


def check_mixing_condition() -> tuple[bool, str]:
    n = 4
    size = factorial(n)
    beta = np.pi / 4
    columns = []
    for r0 in range(size):
        state = fs.FeasibleState(n, np.zeros(size, dtype=complex))
        state.amps[r0] = 1.0
        columns.append(qa.apply_seq_mixer(state, beta).amps)
    mixer = np.column_stack(columns)
    power = np.eye(size, dtype=complex)
    connected = np.zeros((size, size), dtype=bool)
    for _ in range(6):
        power = mixer @ power
        connected |= np.abs(power) > 1e-9
    if not connected.all():
        missing = int(connected.size - connected.sum())
        return False, f"{missing} basis pairs unconnected within 6 mixer powers"
    return True, "every basis pair connected by some mixer power r <= 6"


def _central_difference(f, x: np.ndarray, step: float = 3e-6) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (f(x + e) - f(x - e)) / (2 * step)
    return grad


def gradient_cases(cost: TourCost, start):
    """(name, angle count, initial-state factory, steps, circuit) for every
    circuit kind at the degree of `start`: bubble and binary-insertion
    acting on the right, bubble elements acting on the left, and QAOA from
    both starts with and without the wraparound slot."""
    n, vec = len(start), cost.vector()
    for seq in (bubble_sequence(n), binary_insertion_sequence(n),
                GeneratingSequence(n, bubble_sequence(n).elements, action_side="left")):
        yield (f"{seq.kind} {seq.action_side}-action", len(seq),
               lambda: fs.basis_state(start), fs.circuit_steps(seq),
               lambda x, seq=seq: fs.run_exhaustive_circuit(seq, x, start))
    for initial in ("basis", "uniform"):
        for wrap in (True, False):
            cfg = qa.QaoaConfig(qa.default_layers(n), initial, wrap)
            p = cfg.layers
            yield (f"qaoa {initial} wraparound={wrap}", 2 * p,
                   lambda cfg=cfg: qa.initial_state(cfg, n, start), qa.qaoa_steps(vec, cfg, n),
                   lambda x, cfg=cfg, p=p: qa.run_qaoa(cost, cfg, x[:p], x[p:], start))


def check_gradient(tol: float = 1e-7) -> tuple[bool, str]:
    """The reverse-sweep gradient of every circuit kind against central
    differences of the circuit functions themselves, so the step lists
    must match the circuits too."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for n in range(4, 7):
        cost = TourCost(random_instance(n + 1, seed=n), reduced=True)
        vec = cost.vector()
        start = tuple(rng.permutation(n).tolist())
        for name, d, initial, steps, circuit in gradient_cases(cost, start):
            x = rng.uniform(0, np.pi, d)
            want = _central_difference(lambda y: fs.expectation(circuit(y), vec), x)
            err = float(np.max(np.abs(fs.expectation_gradient(initial(), steps, x, vec) - want)))
            if err > tol:
                return False, f"{name} n={n}: gradient off central differences by {err:.1e}"
            worst = max(worst, err)
    return True, (f"reverse sweep within {worst:.1e} of central differences "
                  "(sequences both sides, QAOA both starts and slot sets, n = 4..6)")


QUICK_CHECKS = [
    ("perm-core", check_perm_core),
    ("sequence-shapes", check_sequence_shapes),
    ("generating-property", check_generating),
    ("decompose-roundtrip", check_decompose_roundtrip),
    ("prefix-products", check_prefix_products),
    ("encoding-roundtrip", check_encoding_roundtrip),
    ("subregister-action", check_subregister_action),
    ("tour-costs", check_tour_costs),
    ("reachability", check_reachability),
    ("norm-preservation", check_norm_preservation),
    ("optimizer", check_optimizer),
    ("gradient", check_gradient),
]

FULL_CHECKS = QUICK_CHECKS + [
    ("generating-property-n6", lambda: check_generating(6)),
    ("cross-simulator", check_cross_simulator),
    ("ancilla-circuit", check_ancilla_circuit),
    ("mixer-oracle", check_mixer_oracle),
    ("mixing-condition", check_mixing_condition),
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    results = []
    for name, fn in checks:
        began = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - began))
    return results
