"""Self-contained invariant checks behind the `verify` subcommand and
the test suite.

Each check re-derives an expected result from an independent angle
(exhaustive enumeration, closed forms, Taylor-series exponentials) and
compares it against the production code path.  Its parameters set the
sizes, seeds and counts; the defaults are what `verify` runs, and the
tests call the same checks at their own values.  The quick level covers
the combinatorial core in a few seconds; the full level adds the
full-statevector cross-validation at small sizes.
"""

import time
from dataclasses import dataclass
from itertools import product
from math import ceil, factorial, log2

import numpy as np

from . import encoding as enc
from . import feasible as fs
from . import fullstate as full
from . import qaoa as qa
from . import workers
from .optimize import OptConfig, minimize
from .perms import (
    all_perms,
    compose,
    identity,
    inverse,
    inverse_ranks,
    inversion_number,
    is_involution,
    perm_table,
    rank,
    rank_rows,
    transposition,
    unrank,
)
from .sequences import (
    BINARY_INSERTION,
    BUBBLE,
    CONSTRUCTIONS,
    GeneratingReport,
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

BUILDS = tuple(CONSTRUCTIONS.values())
# the closed-form lengths d of the constructions at degree n
LENGTHS = {BUBBLE: lambda n: n * (n - 1) // 2,
           BINARY_INSERTION: lambda n: sum(ceil(log2(k)) for k in range(2, n + 1))}


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _degrees(degrees) -> str:
    """A run of consecutive degrees as text, for details."""
    d = list(degrees)
    return f"n = {d[0]}..{d[-1]}" if len(d) > 1 else f"n = {d[0]}" if d else "no n"


def _mult_table(n: int) -> np.ndarray:
    table = perm_table(n)
    return np.stack([rank_rows(table[a][table]) for a in range(factorial(n))])


def check_perm_core(associative=(4,), ranked=range(1, 7),
                    stepped=range(2, 6)) -> tuple[bool, str]:
    """Composition is associative on all of S_n for n in `associative`;
    rank is a bijection onto 0..n!-1 inverted by unrank for n in `ranked`;
    for n in `stepped`, an adjacency transposition multiplied on either
    side changes the inversion number by one, and the reversal has
    n(n-1)/2 inversions: the two lemmas of `min_adjacency_length`."""
    for n in associative:
        m = _mult_table(n)
        if not np.array_equal(m[m], m[:, m]):
            return False, f"composition is not associative on S_{n}"
    for n in ranked:
        ranks = {rank(p) for p in all_perms(n)}
        if ranks != set(range(factorial(n))):
            return False, f"rank is not a bijection on S_{n}"
        if any(unrank(rank(p), n) != p for p in all_perms(n)):
            return False, f"unrank(rank(.)) != id on S_{n}"
    for n in stepped:
        for p in all_perms(n):
            for j in range(n - 1):
                tau = transposition(n, j, j + 1)
                for side, q in (("right", compose(p, tau)), ("left", compose(tau, p))):
                    if abs(inversion_number(q) - inversion_number(p)) != 1:
                        return False, f"{side} adjacent swap changed inversions by != 1"
        if inversion_number(tuple(range(n - 1, -1, -1))) != n * (n - 1) // 2:
            return False, f"the reversal of degree {n} does not have n(n-1)/2 inversions"
    return True, (f"associativity ({_degrees(associative)}), rank bijection ({_degrees(ranked)}), "
                  f"inversion steps and the reversal ({_degrees(stepped)})")


def check_sequence_shapes(degrees=range(1, 13)) -> tuple[bool, str]:
    """Every element an involution of the sequence's degree, and the
    closed-form lengths of `LENGTHS`."""
    for n in degrees:
        for kind, build in CONSTRUCTIONS.items():
            seq = build(n)
            problems = check_sequence(seq)
            if len(seq) != LENGTHS[kind](n):
                problems.append(f"length is {len(seq)}, expected {LENGTHS[kind](n)}")
            if problems:
                return False, f"{kind} n={n}: {problems[0]}"
    return True, f"lengths and involutions for {_degrees(degrees)}"


def _enumerated_report(seq: GeneratingSequence) -> GeneratingReport:
    """The generating report from `recompose` over all 2^d masks."""
    reached = {recompose(seq, mask) for mask in product((0, 1), repeat=len(seq))}
    missing = tuple(p for p in all_perms(seq.n) if p not in reached)
    return GeneratingReport(not missing, factorial(seq.n), len(reached), missing)


def check_generating(degrees=range(2, 6), builds=BUILDS, exhaustive=range(2, 6),
                     sequences=()) -> tuple[bool, str]:
    """Both constructions generating at each degree by the product sweep,
    and the sweep's report equal to recomposing all 2^d masks for the
    constructions at a degree in `exhaustive` and for each of `sequences`,
    which need not be generating."""
    compared = list(sequences)
    for n in degrees:
        for build in builds:
            seq = build(n)
            report = verify_generating(seq)
            if not report or report.reached != factorial(n) or report.unreachable:
                return False, (
                    f"{seq.kind} n={n}: {len(report.unreachable)} of "
                    f"{report.group_order} unreachable"
                )
            if n in exhaustive:
                compared.append(seq)
    for seq in compared:
        swept, enumerated = verify_generating(seq), _enumerated_report(seq)
        if swept != enumerated:
            differ = sorted(set(swept.unreachable) ^ set(enumerated.unreachable))
            return False, (
                f"{seq.kind} n={seq.n}, {len(seq)} elements: the sweep and all 2^d masks "
                f"disagree on {len(differ)} tours, first {differ[:1]}"
            )
    return True, (f"every ordered product reached for {_degrees(degrees)}; the sweep "
                  f"equals all 2^d masks for {_degrees(n for n in degrees if n in exhaustive)}"
                  + (f" and {len(sequences)} more sequences" if sequences else ""))


def check_decompose_roundtrip(exhaustive=range(1, 6), sampled=range(6, 10),
                              samples: int = 1000, seed: int = 7,
                              builds=BUILDS) -> tuple[bool, str]:
    """recompose(decompose(g)) == g for every g in S_n, n in `exhaustive`,
    and for `samples` random g a degree in `sampled`, drawn from one
    generator seeded `seed`."""
    for n in exhaustive:
        for build in builds:
            seq = build(n)
            for g in all_perms(n):
                if recompose(seq, decompose(seq, g)) != g:
                    return False, f"{seq.kind} n={n}: roundtrip failed at {g}"
    rng = np.random.default_rng(seed)
    for n in sampled:
        seqs = [build(n) for build in builds]
        for _ in range(samples):
            g = tuple(rng.permutation(n).tolist())
            for seq in seqs:
                if recompose(seq, decompose(seq, g)) != g:
                    return False, f"{seq.kind} n={n}: roundtrip failed at {g}"
    return True, (f"exhaustive for {_degrees(exhaustive)}, "
                  f"{samples} random samples for {_degrees(sampled)}")


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


def check_encoding_roundtrip(degrees=range(1, 6),
                             counted=(enc.EncodingSpec(3, enc.ONEHOT),
                                      enc.EncodingSpec(4, enc.COMPACT),
                                      enc.EncodingSpec(3, enc.COMPACT))) -> tuple[bool, str]:
    """Every tour encodes feasibly and decodes back, for n cities in
    `degrees`, both kinds, reduced or not; and exactly degree! of all
    bit strings are feasible for each spec in `counted`."""
    for n in degrees:
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
    for spec in counted:
        got = sum(enc.is_feasible(b, spec) for b in enc.all_bitstrings(spec.num_bits))
        if got != factorial(spec.degree):
            return False, f"{spec}: {got} feasible strings, expected {factorial(spec.degree)}"
    return True, (f"round trips for {_degrees(degrees)} and exhaustive feasible "
                  f"counts for {len(counted)} specs")


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


def check_tour_costs(rotation_seeds=(11,), optimum_degrees=range(3, 7)) -> tuple[bool, str]:
    """Every rotation of every 5-city tour costs the same, on one random
    instance per seed in `rotation_seeds`; the reduced and full optima
    agree on the random instance seeded n, for n in `optimum_degrees`."""
    for seed in rotation_seeds:
        inst = random_instance(5, seed=seed)
        for p in all_perms(5):
            c = tour_cost(inst, p)
            for shift in range(1, 5):
                if abs(tour_cost(inst, p[shift:] + p[:shift]) - c) > 1e-9:
                    return False, f"cyclic rotation changed the cost of {p}"
    for n in optimum_degrees:
        inst = random_instance(n, seed=n)
        if abs(optimum(inst, False)[1] - optimum(inst, True)[1]) > 1e-9:
            return False, f"reduced and full optimum differ at n={n}"
    return True, ("cyclic invariance of 5-city tours, reduced/full optimum "
                  f"agreement for {_degrees(optimum_degrees)}")


def check_reachability(degrees=(4, 5), all_starts=(4,), extra_starts=((2, 0, 4, 1, 3),),
                       samples: int = 100, seed: int = 2024,
                       builds=BUILDS) -> tuple[bool, str]:
    """The angles of `reachability_params` reach the target with unit
    fidelity, for `builds` and the bubble elements acting on the left.
    Starts are every tour for a degree in `all_starts`, else the identity
    and the tours of that degree in `extra_starts`; targets are every
    tour up to degree 5, else `samples` tours drawn from one generator
    seeded `seed`."""
    rng = np.random.default_rng(seed)
    for n in degrees:
        if n <= 5:
            targets = list(all_perms(n))
        else:
            targets = [tuple(rng.permutation(n).tolist()) for _ in range(samples)]
        if n in all_starts:
            starts = list(all_perms(n))
        else:
            starts = [identity(n)] + [s for s in extra_starts if len(s) == n]
        left = GeneratingSequence(n, bubble_sequence(n).elements, action_side="left")
        for seq in [build(n) for build in builds] + [left]:
            for start in starts:
                for target in targets:
                    thetas = fs.reachability_params(seq, start, target)
                    state = fs.run_exhaustive_circuit(seq, thetas, start)
                    if abs(fs.fidelity(state, target) - 1) > 1e-10:
                        return False, f"{seq.kind} {seq.action_side} n={n}: fidelity < 1 for {target}"
    return True, f"unit fidelity for every sampled (start, target), both sides, {_degrees(degrees)}"


def check_action_tables(every=range(1, 6), constructions=range(1, 8)) -> tuple[bool, str]:
    """Every `Action`'s rank table, derived whole from its chunk ranks
    (its kept `Action.table` on the right, `Action.take` through J on the
    left), equals the ranks of the permuted rows of `perm_table`:
    the `involution_action` of every involution of S_n on
    both sides, n in `every`, and for n in `constructions` of every
    element of both constructions on both sides and every QAOA slot's
    `mixer_slot_action`.  The left action of h is J[R_h[J]], for R_h the
    right one and J = `inverse_ranks`.  For every right action that moves
    chunks of B = b! ranks in periods of P = p! ranks, the blocked gather
    (`feasible._gathered`) lists the same ranks on blocks of B/2 (halves
    of one chunk, when B > 1), of (p-1)! (whole chunks of one period: for
    B = 1 and P = n!, of the n! chunk ranks) and of (p+1)! (whole
    periods; one period when p = n)."""
    checked = gathered = 0
    for n in sorted(set(every) | set(constructions)):
        tours = perm_table(n)
        if n in every:
            elements = [p for p in all_perms(n) if is_involution(p)]
        else:
            elements = sorted({h for build in BUILDS for h in build(n).elements})
        cases = [(h, side, fs.involution_action(h)) for h in elements for side in ("right", "left")]
        if n in constructions and n >= 2:
            slots = [transposition(n, t, t + 1) for t in range(n - 1)] + [transposition(n, 0, n - 1)]
            cases += [(h, "right", qa.mixer_slot_action(t, n)) for t, h in enumerate(slots)]
        ranks, j = np.arange(factorial(n)), inverse_ranks(n)
        for h, side, action in cases:
            got = action.table if side == "right" else j[action.take(ranks)[j]]
            rows = tours[:, list(h)] if side == "right" else np.asarray(h)[tours]
            want = rank_rows(rows, n)
            if not np.array_equal(got, want):
                return False, (f"{side} action of {h} (period {action.period}, chunk "
                               f"{action.chunk}, {len(action.index)} index entries) gathers the wrong ranks")
            if side == "right":
                p = max(m for m in range(n + 1) if factorial(m) == action.period)
                for block in filter(None, (action.chunk // 2, factorial(p - 1), factorial(min(p + 1, n)))):
                    got = [fs._gathered(ranks, action, i, i + block) for i in range(0, len(ranks), block)]
                    if not np.array_equal(np.concatenate(got), want):
                        return False, (f"the chunk gather of {h} (period {action.period}, chunk "
                                       f"{action.chunk}) on blocks of {block} gathers the wrong ranks")
                gathered += 1
        checked += len(cases)
    return True, (f"{checked} actions: every involution on both sides for {_degrees(every)}, "
                  f"construction elements and QAOA slots for {_degrees(constructions)}; "
                  f"{gathered} chunk gathers on blocks inside a chunk, of chunks and of periods")


def check_norm_preservation(seed: int = 3, gates: int = 1000) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = 5
    seq = bubble_sequence(n)
    state = fs.uniform_feasible_state(n)
    for k in range(gates):
        h = seq.elements[rng.integers(len(seq.elements))]
        state = fs.apply_involution_exp(state, fs.involution_action(h), rng.uniform(0, 2 * np.pi))
        if abs(state.norm() - 1) > 1e-10:
            return False, f"norm drifted after {k + 1} gates"
    return True, f"norm 1 within 1e-10 through {gates} random gates"


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


def check_cross_simulator(circuits: int = 20, seed: int = 17,
                          specs=(enc.EncodingSpec(3, enc.ONEHOT), enc.EncodingSpec(3, enc.COMPACT),
                                 enc.EncodingSpec(4, enc.ONEHOT), enc.EncodingSpec(4, enc.COMPACT)),
                          ) -> tuple[bool, str]:
    """`circuits` random 20-gate circuits per encoding in `specs` agree
    with the full statevector, which keeps no infeasible mass."""
    rng = np.random.default_rng(seed)
    for spec in specs:
        n, kind = spec.n, spec.kind
        pool = list(
            set(bubble_sequence(n).elements)
            | set(binary_insertion_sequence(n).elements)
        )
        for _ in range(circuits):
            start = tuple(rng.permutation(n).tolist())
            feas = fs.basis_state(start)
            sv = full.basis_statevector(enc.encode(start, spec))
            for _ in range(20):
                h = pool[rng.integers(len(pool))]
                theta = rng.uniform(0, 2 * np.pi)
                feas = fs.apply_involution_exp(feas, fs.involution_action(h), theta)
                sv = full.apply_swap_involution_exp(sv, h, spec, theta)
            projected, mass = full.project_feasible(sv, spec)
            if mass > 1e-12:
                return False, f"{kind} n={n}: infeasible mass {mass:.2e}"
            if np.max(np.abs(projected.amps - feas.amps)) > 1e-10:
                return False, f"{kind} n={n}: amplitude mismatch"
    return True, f"{circuits} random 20-gate circuits per size and encoding"


def check_ancilla_circuit(trials: int = 50, seed: int = 23) -> tuple[bool, str]:
    """The one-ancilla circuit matches exp(-i theta U) at `trials` random
    angles and leaves at most 1e-12 on ancilla |1> at theta = 0.83."""
    spec = enc.EncodingSpec(3, enc.COMPACT)
    elements = list(
        set(bubble_sequence(3).elements) | set(binary_insertion_sequence(3).elements)
    )
    rng = np.random.default_rng(seed)
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
    dim = 1 << spec.num_bits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    joint = full.ancilla_exponential_circuit(full.StateVector(spec.num_bits, amps),
                                             elements[0], spec, 0.83)
    residual = float(np.sum(np.abs(joint[:, 1]) ** 2))
    if residual > 1e-12:
        return False, f"ancilla |1> keeps {residual:.2e} at theta = 0.83"
    return True, f"max deviation {worst:.1e} over {trials} trials"


def check_mixer_oracle(slots=range(3), betas=(0.3, np.pi / 4, 1.2)) -> tuple[bool, str]:
    """The raw one-hot mixer Hamiltonian of each slot in `slots` is
    Hermitian, and its Taylor exponential at each beta in `betas` matches
    the slot-swap action on every feasible 3-city state."""
    spec = enc.EncodingSpec(3, enc.ONEHOT)
    n = 3
    for slot in slots:
        H = full.swap_partial_hamiltonian(slot, spec)
        if (H != H.getH()).nnz:
            return False, f"slot {slot}: mixer Hamiltonian is not Hermitian"
        images = qa.mixer_slot_action(slot, n).take(np.arange(factorial(n)))
        for beta in betas:
            for p in all_perms(n):
                sv = full.basis_statevector(enc.encode(p, spec))
                out = full.taylor_expm_apply(H, beta, sv)
                swapped = unrank(int(images[rank(p)]), n)
                want = np.zeros_like(out.amps)
                want[full.bits_to_index(enc.encode(p, spec))] = np.cos(beta)
                want[full.bits_to_index(enc.encode(swapped, spec))] += -1j * np.sin(beta)
                if np.max(np.abs(out.amps - want)) > 1e-8:
                    return False, f"slot {slot}, beta {beta}: Taylor mismatch"
    return True, "Taylor exponential matches the slot-swap action on all feasible states"


def check_mixing_condition() -> tuple[bool, str]:
    n = 4
    size = factorial(n)
    sweep = [(action, 0) for action in qa.mixer_slots(n)]
    beta = np.pi / 4
    columns = []
    for r0 in range(size):
        state = fs.FeasibleState(n, np.zeros(size, dtype=complex))
        state.amps[r0] = 1.0
        columns.append(fs.run_steps(state, sweep, [beta]).amps)
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
    """(name, angle count, initial-state factory, steps, cost vector,
    circuit) for every circuit kind at the degree of `start`: bubble and
    binary-insertion acting on the right, bubble elements acting on the
    left (right-acting steps from start^-1 against cost[J], J =
    `inverse_ranks`), and QAOA from both starts with and without the
    wraparound slot."""
    n, vec = len(start), cost.vector()
    for seq in (bubble_sequence(n), binary_insertion_sequence(n)):
        yield (f"{seq.kind} right-action", len(seq), lambda: fs.basis_state(start),
               fs.circuit_steps(seq), vec, lambda x, seq=seq: fs.run_exhaustive_circuit(seq, x, start))
    left = GeneratingSequence(n, bubble_sequence(n).elements, action_side="left")
    yield (f"{left.kind} left-action", len(left), lambda: fs.basis_state(inverse(start)),
           fs.circuit_steps(left), vec[inverse_ranks(n)],
           lambda x: fs.run_exhaustive_circuit(left, x, start))
    for initial in ("basis", "uniform"):
        for wrap in (True, False):
            cfg = qa.QaoaConfig(qa.default_layers(n), initial, wrap)
            p = cfg.layers
            yield (f"qaoa {initial} wraparound={wrap}", 2 * p,
                   lambda cfg=cfg: qa.initial_state(cfg, n, start), qa.qaoa_steps(vec, cfg, n), vec,
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
        for name, d, initial, steps, weights, circuit in gradient_cases(cost, start):
            x = rng.uniform(0, np.pi, d)
            want = _central_difference(lambda y: fs.expectation(circuit(y), vec), x)
            err = float(np.max(np.abs(fs.expectation_gradient(initial(), steps, x, weights) - want)))
            if err > tol:
                return False, f"{name} n={n}: gradient off central differences by {err:.1e}"
            worst = max(worst, err)
    return True, (f"reverse sweep within {worst:.1e} of central differences "
                  "(sequences both sides, QAOA both starts and slot sets, n = 4..6)")


def _bounded_gradient(circuit: fs.Circuit, x, stop_above) -> tuple[np.ndarray, int]:
    """circuit.gradient(x, stop_above) and the number of steps its sweep
    undid."""
    before = circuit.sweep_steps
    grad = circuit.gradient(x, stop_above=stop_above)
    return grad, circuit.sweep_steps - before


def _cut(full: np.ndarray, circuit: fs.Circuit, ran: int) -> np.ndarray:
    """`full` with 0 for every angle whose first step lies before the
    last `ran` steps of `circuit`, as a sweep cut after `ran` steps
    returns it."""
    return np.where(circuit._first >= len(circuit.steps) - ran, full, 0.0)


def check_bounded_gradient(degrees=range(4, 7), seed: int = 43) -> tuple[bool, str]:
    """`Circuit.gradient` with a bound, for every circuit kind at each of
    `degrees` and bounds at 0.5, 1, 1 + 1e-12 and 2 times the full
    gradient's norm and at 1e-300: its norm is below the bound exactly
    when the full gradient's is, its finished components (each angle's
    first step undone) are `expectation_gradient`'s bit for bit and the
    rest 0, and without a bound it is `expectation_gradient` bit for
    bit.  A bubble circuit whose steps take two angles in turn has
    unfinished components with terms in them when its sweep stops."""
    rng = np.random.default_rng(seed)
    sweeps = cut = 0
    for n in degrees:
        cost = TourCost(random_instance(n + 1, seed=seed + n), reduced=True)
        start = tuple(rng.permutation(n).tolist())
        cases = [case[:5] for case in gradient_cases(cost, start)]
        alternate = [(generator, k % 2) for generator, k in fs.circuit_steps(bubble_sequence(n))]
        cases.append(("bubble on two alternate angles", 2, lambda: fs.basis_state(start),
                      alternate, cost.vector()))
        for name, d, initial, steps, vec in cases:
            x = rng.uniform(0, np.pi, d)
            full = fs.expectation_gradient(initial(), steps, x, vec)
            norm = float(np.linalg.norm(full))
            circuit = fs.Circuit(initial(), steps, vec)
            if circuit.gradient(x).tobytes() != full.tobytes():
                return False, f"{name} n={n}: gradient without a bound differs from expectation_gradient"
            for stop_above in (0.5 * norm, norm, norm * (1 + 1e-12), 2 * norm, 1e-300):
                got, ran = _bounded_gradient(circuit, x, stop_above)
                where = f"{name} n={n} stop_above={stop_above!r}"
                if (np.linalg.norm(got) < stop_above) != (norm < stop_above):
                    return False, f"{where}: norm {np.linalg.norm(got)!r} decides otherwise than {norm!r}"
                if got.tobytes() != _cut(full, circuit, ran).tobytes():
                    return False, f"{where}: differs from expectation_gradient cut after {ran} steps"
                sweeps += 1
                cut += ran < len(steps)
    if not cut:
        return False, "no bounded sweep stopped early"
    return True, (f"bounded gradients decide the stop rule as the full one does, finished components "
                  f"bit-identical, over every circuit kind at {_degrees(degrees)}; "
                  f"{cut} of {sweeps} sweeps stopped early")


def _gammas(steps) -> list:
    """The indices of the angles that phase steps of `steps` use."""
    return sorted({k for generator, k in steps if not isinstance(generator, fs.Action)})


def check_circuit_reuse(n: int = 5, seed: int = 31) -> tuple[bool, str]:
    """A `Circuit` of every circuit kind, walked through a repeated point,
    a middle angle flipped from 0.0 to -0.0 and back, one-angle changes at
    its first, middle and last angle, a gradient right after a value at
    the same point, a state after a gradient and a value after a state,
    gives each value, gradient and state bit for bit as `run_steps` and
    `expectation_gradient` do from the initial state.  The walk also
    takes a gradient bounded at 1e-300, whose sweep stops early and
    leaves the checkpoints for the value and the state after it.  A QAOA
    walk goes on through phase angles alone: the last gamma through
    `CHECKPOINTS` new values and back to its old one, whose held factors
    another point took by then, every gamma 0.0, and the first one -0.0
    and back.  One more QAOA circuit has more layers, each at its own
    gamma, than the circuit holds arrays of factors."""
    rng = np.random.default_rng(seed)
    cost = TourCost(random_instance(n + 1, seed=seed), reduced=True)
    start = tuple(rng.permutation(n).tolist())
    deep = qa.QaoaConfig(fs.CHECKPOINTS + 2, "uniform")
    cases = [case[:5] for case in gradient_cases(cost, start)]
    cases.append((f"qaoa uniform, {deep.layers} layers", 2 * deep.layers,
                  lambda: qa.initial_state(deep, n), qa.qaoa_steps(cost.vector(), deep, n),
                  cost.vector()))
    reuses = skipped = total = rebuilt = 0
    for name, d, initial, steps, vec in cases:
        x = rng.uniform(0, np.pi, d)
        x[d // 2] = 0.0
        walk = [("value", x), ("value", x)]
        for sign, calls in ((-0.0, ("value", "gradient", "state")), (0.0, ("value",))):
            x = x.copy()
            x[d // 2] = sign
            walk += [(call, x) for call in calls]
        for i in (0, d // 2, d - 1):
            x = x.copy()
            x[i] = rng.uniform(0, np.pi)
            walk.append(("value", x))
        walk += [("bounded", x), ("value", x), ("state", x),
                 ("gradient", x), ("state", x), ("value", x)]
        gammas = _gammas(steps)
        if gammas:
            y = x
            for gamma in rng.uniform(0, np.pi, fs.CHECKPOINTS):
                y = y.copy()
                y[gammas[-1]] = gamma
                walk.append(("value", y))
            y = x.copy()
            y[gammas] = 0.0
            walk += [("return", x), ("value", y), ("gradient", y)]
            for sign in (-0.0, 0.0):
                y = y.copy()
                y[gammas[0]] = sign
                walk += [("value", y), ("state", y)]
        circuit = fs.Circuit(initial(), steps, vec)
        for step, (call, x) in enumerate(walk):
            if call == "bounded":
                got, ran = _bounded_gradient(circuit, x, 1e-300)
                full = fs.expectation_gradient(initial(), steps, x, vec)
                same = ran < len(steps) and got.tobytes() == _cut(full, circuit, ran).tobytes()
            elif call in ("value", "return"):
                builds = circuit.phase_builds
                got = circuit.value(x)
                want = fs.expectation(fs.run_steps(initial(), steps, x), vec)
                same = got == want
                rebuilt += call == "return" and circuit.phase_builds > builds
            elif call == "gradient":
                got = circuit.gradient(x)
                same = got.tobytes() == fs.expectation_gradient(initial(), steps, x, vec).tobytes()
            else:
                got = circuit.state(x)
                same = got.amps.tobytes() == fs.run_steps(initial(), steps, x).amps.tobytes()
            if not same:
                return False, f"{name}: {call} at walk step {step} differs from a fresh pass"
        reuses += circuit.forward_reuses
        skipped += circuit.steps_skipped
        total += circuit.forward_steps
    if not rebuilt:
        return False, "no gamma that returned to an earlier value built its factors again"
    return True, (f"values, gradients and states bit-identical to fresh passes over every "
                  f"circuit kind at n = {n}; {reuses} reuses, {skipped} of {total} steps skipped, "
                  f"{rebuilt} returning gammas built again")


def check_blocked_runs(n: int = 8, seed: int = 37) -> tuple[bool, str]:
    """`run_steps` of every circuit kind (`gradient_cases`) at degree n
    gives, bit for bit, the amplitudes of its steps applied one at a time
    as whole-array numpy expressions: cos(t) a - 1j sin(t) a[table] for a
    gate, through the whole table `Action.take` gathers (which
    `check_action_tables` holds to `rank_rows`), and exp(-1j t cost) a
    for a phase.  Every step goes through one block loop; on states longer
    than `GATE_BLOCK` its runs of local steps go block by block, so at the
    default block a degree-8 state is blocked.
    QAOA without the wraparound slot ends a layer's run with the next
    phase step; with that slot, each phase step is a run of its own."""
    rng = np.random.default_rng(seed)
    cost = TourCost(random_instance(n + 1, seed=seed), reduced=True)
    start = tuple(rng.permutation(n).tolist())
    size = factorial(n)
    block, ranks = fs._block(size), np.arange(size)
    blocked = total = 0
    for name, d, initial, steps, _, _ in gradient_cases(cost, start):
        x = rng.uniform(0, 2 * np.pi, d)
        want = initial().amps
        for generator, k in steps:
            if isinstance(generator, fs.Action):
                want = np.cos(x[k]) * want - 1j * np.sin(x[k]) * want[generator.take(ranks)]
            else:
                want = np.exp(-1j * x[k] * generator) * want
        if fs.run_steps(initial(), steps, x).amps.tobytes() != want.tobytes():
            return False, f"{name} n={n}: run_steps differs from the steps one at a time"
        blocked += sum(block < size and fs._local(generator, block) for generator, _ in steps)
        total += len(steps)
    if not blocked:
        return False, f"no run of local steps is blocked at degree {n}"
    return True, (f"run_steps bit-identical to whole-array steps over every circuit kind at "
                  f"n = {n}; {blocked} of {total} steps in runs of blocks of {block} amplitudes")


def _team_results(initial, steps, vec, walk) -> list:
    """(label, bytes) of `run_steps` and `expectation_gradient` at walk[0],
    then of a `Circuit`'s value and gradient at each point of `walk`."""
    x = walk[0]
    results = [("run_steps", fs.run_steps(initial(), steps, x).amps.tobytes()),
               ("expectation_gradient", fs.expectation_gradient(initial(), steps, x, vec).tobytes())]
    circuit = fs.Circuit(initial(), steps, vec)
    for i, y in enumerate(walk):
        results.append((f"Circuit.value at walk step {i}", np.float64(circuit.value(y)).tobytes()))
        results.append((f"Circuit.gradient at walk step {i}", circuit.gradient(y).tobytes()))
    return results


def check_parallel_steps(degrees=(6, 7), blocks: int = 9, seed: int = 41) -> tuple[bool, str]:
    """Every circuit kind (`gradient_cases`) at each of `degrees` is built
    and run by `run_steps` on the calling grid (one block at the default
    `GATE_BLOCK`).  With `GATE_BLOCK` then n!/`blocks` (rounded down), so
    that every step shares its more than 8 blocks out among the team of
    `workers.WORKERS`, the same cached actions give `run_steps` the same
    amplitudes, and `run_steps`, `expectation_gradient` and a `Circuit`'s
    values and gradients after resumes (a change at the last, middle and
    first angle, then at every phase angle, which builds held factors)
    give what they give with one worker, bit for bit.  The team has two
    workers at least, so that the check covers it on one CPU too."""
    saved = fs.GATE_BLOCK, workers.WORKERS
    team = max(2, workers.WORKERS)
    rng = np.random.default_rng(seed)
    cases = 0
    try:
        for n in degrees:
            fs.GATE_BLOCK = saved[0]
            cost = TourCost(random_instance(n + 1, seed=seed), reduced=True)
            start = tuple(rng.permutation(n).tolist())
            built = []
            for name, d, initial, steps, vec, _ in gradient_cases(cost, start):
                walk = [rng.uniform(0, 2 * np.pi, d)]
                for i in (d - 1, d // 2, 0, _gammas(steps)):
                    walk.append(walk[-1].copy())
                    walk[-1][i] += 0.5
                built.append((name, initial, steps, vec, walk,
                              fs.run_steps(initial(), steps, walk[0]).amps.tobytes()))
            fs.GATE_BLOCK = factorial(n) // blocks
            if factorial(n) <= 8 * fs.GATE_BLOCK:
                return False, f"n={n}: {factorial(n)} amplitudes span 8 blocks of {fs.GATE_BLOCK} or fewer"
            for name, initial, steps, vec, walk, first in built:
                workers.WORKERS = team
                shared = _team_results(initial, steps, vec, walk)
                workers.WORKERS = 1
                alone = _team_results(initial, steps, vec, walk)
                if shared[0][1] != first:
                    return False, (f"{name} n={n}: run_steps on blocks of {fs.GATE_BLOCK} "
                                   "differs from the calling grid's")
                for (label, got), (_, want) in zip(shared, alone):
                    if got != want:
                        return False, f"{name} n={n}: {label} on {team} workers differs from one"
                cases += 1
    finally:
        fs.GATE_BLOCK, workers.WORKERS = saved
    return True, (f"{cases} circuits, {_degrees(degrees)}, with GATE_BLOCK n!/{blocks}: states as on "
                  f"the calling grid, and states, gradients, and Circuit values and gradients after "
                  f"resumes on {team} workers bit-identical to one worker")


QUICK_CHECKS = [
    ("perm-core", check_perm_core),
    ("sequence-shapes", check_sequence_shapes),
    ("generating-property", check_generating),
    ("decompose-roundtrip", check_decompose_roundtrip),
    ("prefix-products", check_prefix_products),
    ("encoding-roundtrip", check_encoding_roundtrip),
    ("subregister-action", check_subregister_action),
    ("action-tables", check_action_tables),
    ("blocked-runs", check_blocked_runs),
    ("parallel-steps", check_parallel_steps),
    ("tour-costs", check_tour_costs),
    ("reachability", check_reachability),
    ("norm-preservation", check_norm_preservation),
    ("optimizer", check_optimizer),
    ("gradient", check_gradient),
    ("bounded-gradient", check_bounded_gradient),
    ("circuit-reuse", check_circuit_reuse),
]

FULL_CHECKS = QUICK_CHECKS + [
    ("generating-property-n10", lambda: check_generating(range(2, 11))),
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
