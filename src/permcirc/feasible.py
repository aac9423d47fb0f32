"""Exact simulation in the feasible subspace.

States are complex amplitude vectors over all n! tour permutations,
indexed by Lehmer rank; infeasible bit strings simply do not exist in
this representation.  Exponentials of involutory permutation operators
reduce to cos(theta) * amps - i sin(theta) * gathered amps, so a gate is
one vectorised gather-and-mix pass through the involution's rank table.

An `Action` holds that table as one period: an element that first moves
position s maps each run of P = (n-s)! consecutive ranks onto itself,
the same way in each, so `perms.right_action` builds only the P local
ranks of one run, and a gate gathers each block of amplitudes from the
window of whole periods it lies in.  A left action is a right action
between two relabellings by J, the rank table of p -> p^-1.  A circuit
is a list of steps, each a generator (an `Action` or a diagonal cost
vector) tied to an angle; `run_steps` alternates its gates between two
states through the `out` argument of the gate and phase functions.  A
gate gathers large states block by block, each gather bounds-checked by
numpy indexing, and gives the same amplitudes, bit for bit, whether or
not `out` is given.  A run of consecutive local steps (phase steps, and
gates whose period divides the run's block of whole periods) maps each
block onto itself, so on a large state it goes block by block, every
step of the run on one block while the block stays in cache, with the
amplitudes of one step at a time; a lone local step is a run of one.

On a state of more than 8 gate blocks (2 MB, past the L2 that
`GATE_BLOCK` assumes: degree 9 and up), the blocks of a gate or a run are
shared out among the team of `workers.WORKERS` threads, one per CPU the
process may run on (`taskset` limits it), the calling thread among them.
Its other threads start the first time a step qualifies, so smaller
states start none.  The amplitudes, and the gradient's terms summed in
block order, are those of one thread bit for bit.

`expectation_gradient` differentiates a circuit's expected cost over all
its angles by one reverse sweep, which undoes each gate through the same
block loop.  A `Circuit` keeps its last forward pass: the final state and
a few prefix checkpoints, from which its value, its gradient's sweep and
its final state at a nearby point resume, with the same amplitudes bit for
bit.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from . import limits, workers
from .perms import (
    Perm,
    check_perm,
    compose,
    inverse,
    inverse_ranks,
    is_involution,
    rank,
    right_action,
    unrank,
)
from .sequences import GeneratingSequence, decompose

# Amplitudes per gate block: a state longer than this is gathered and mixed
# a block at a time, so that a block's passes (about 56 bytes an amplitude
# with its table slice) stay in a 2 MB L2.  Shorter states take one gather
# through the whole table.  An `Action` built while it holds keeps
# GATE_BLOCK + P ranks of its table (n! at most), so that each block lies in
# one window of whole periods.  It also sizes the block of a run of local
# steps: the most whole multiples of the largest factorial F <= GATE_BLOCK
# that fit in it (15 120 = 3 * 7!).  A phase step is only ever split on that
# grid, into blocks of an even length: with numpy 2.4 on x86-64, a complex
# multiply or exp over an odd-length block (7 amplitudes, say) rounds its
# tail differently from the call over the whole array.  A state of more
# than 8 blocks (2 MB) shares its blocks out among the worker team.
GATE_BLOCK = 16384

# States a `Circuit` keeps of its last forward pass: the state before step
# 0 (the initial state) and before every stride-th step after it.  At
# degree 8 a state is 645 KB.
CHECKPOINTS = 4


@dataclass
class FeasibleState:
    """Amplitudes over S_n in Lehmer-rank order; norm 1."""

    n: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def basis_state(p: Perm) -> FeasibleState:
    """Unit amplitude on one tour."""
    check_perm(p)
    limits.check("state", len(p))
    amps = np.zeros(factorial(len(p)), dtype=complex)
    amps[rank(p)] = 1.0
    return FeasibleState(len(p), amps)


def uniform_feasible_state(n: int) -> FeasibleState:
    """Every tour at amplitude 1/sqrt(n!)."""
    limits.check("state", n)
    size = factorial(n)
    amps = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    return FeasibleState(n, amps)


@dataclass(frozen=True, eq=False)
class Action:
    """How a permutation acts on the Lehmer ranks of degree-n tours: rank
    r goes to head[r % period] + r - r % period.

    `head` is read-only and holds the first GATE_BLOCK + period entries of
    the rank table (n! at most, at the `GATE_BLOCK` the action was built
    with), so a gate gathers each of its blocks from one window of whole
    periods, starting at the period boundary before the block.
    """

    n: int
    period: int
    head: np.ndarray

    @classmethod
    def of(cls, n: int, period: np.ndarray) -> "Action":
        """The degree-n action whose table has one period `period`, which
        must hold local ranks 0..P-1 (IndexError otherwise).  The head
        repeats it, each repeat shifted by P, over GATE_BLOCK + P ranks or
        n!, whichever is fewer; a period of n! ranks is the head itself."""
        size, p = factorial(n), len(period)
        if not p or size % p:
            raise ValueError(f"a period of {p} ranks does not divide {n}! = {size}")
        if period.min() < 0 or period.max() >= p:
            raise IndexError(f"a period of {p} ranks has entries outside 0..{p - 1}")
        length = min(GATE_BLOCK + p, size)
        if p == size:
            head = period.view()
        else:
            head = np.empty(length, dtype=period.dtype)
            whole = length - length % p
            np.add(np.arange(0, whole, p)[:, None], period, out=head[:whole].reshape(-1, p))
            np.add(period[:length - whole], whole, out=head[whole:])
        head.setflags(write=False)
        return cls(n, p, head)

    @property
    def nbytes(self) -> int:
        """Bytes of the index array."""
        return self.head.nbytes

    def take(self, values: np.ndarray) -> np.ndarray:
        """values[table] for all n! ranks, gathered block by block as a
        gate gathers; a new array."""
        size = factorial(self.n)
        if len(values) != size:
            raise ValueError(f"{len(values)} values for a degree-{self.n} action")
        return np.concatenate([_gathered(values, self, i, min(i + GATE_BLOCK, size))
                               for i in range(0, size, GATE_BLOCK)])


@lru_cache(maxsize=None)
def involution_action(element: Perm) -> Action:
    """The `Action` of one involution on all of S_n, mapping rank(p) ->
    rank(p . element) (slot semantics), with the period of
    `perms.right_action`.  The table is itself an involution on 0..n!-1.
    """
    if not is_involution(element):
        raise ValueError(f"element is not an involution: {element}")
    n = len(element)
    limits.check("state", n)
    return Action.of(n, right_action(element))


def apply_involution_exp(state: FeasibleState, action: Action, theta: float,
                         out: FeasibleState | None = None) -> FeasibleState:
    """exp(-i theta H) for the involutory permutation operator H given by
    an `Action` a: amps'[r] = cos(theta) amps[r] - i sin(theta) amps[a(r)].

    Orbit pairs {r, a(r)} are independent, so the whole update is one
    gather; fixed points of the action pick up the phase exp(-i theta).
    The result is written to `out` (a state other than `state`), or to a
    new state when `out` is omitted, and returned.  States longer than
    `GATE_BLOCK` amplitudes are gathered and mixed a block at a time; an
    index out of range raises IndexError either way, and an action of
    another degree than the state's ValueError.
    """
    out = _target(state, action, out)
    _gate(state.amps, action, theta, out.amps)
    return out


def _fits(state: FeasibleState, generator) -> None:
    """Refuse a step's generator that does not fit `state`: an `Action` of
    another degree, or a cost vector without one entry per amplitude."""
    if isinstance(generator, Action):
        if generator.n != state.n:
            raise ValueError(f"action of degree {generator.n} for a state of degree {state.n}")
    elif len(generator) != len(state.amps):
        raise ValueError(f"generator has {len(generator)} entries for {len(state.amps)} amplitudes")


def _target(state: FeasibleState, generator, out: FeasibleState | None = None) -> FeasibleState:
    """`out`, or a new state when it is None, for a step whose generator
    must fit `state` (`_fits`)."""
    _fits(state, generator)
    if out is None:
        return FeasibleState(state.n, np.empty_like(state.amps))
    if out is state or out.amps is state.amps:
        raise ValueError("out must not be the input state")
    return out


def _gate(amps: np.ndarray, action: Action, theta: float, dest: np.ndarray,
          lam: np.ndarray | None = None) -> complex:
    """Write cos(theta) amps - i sin(theta) amps[table] to `dest`, for the
    action's rank table, with one gather, or one bounds-checked gather per
    block of `GATE_BLOCK` amplitudes (`_share`), and return <lam|amps[table]>
    for a costate `lam` (0 without one), summed in block order."""
    c, s = np.cos(theta), 1j * np.sin(theta)
    size, g = len(amps), GATE_BLOCK
    if size <= g:
        return _mix(c, amps, s, amps[action.head], dest, lam)
    overlaps = [0] * -(-size // g)

    def block(t):
        b = slice(t * g, (t + 1) * g)
        overlaps[t] = _mix(c, amps[b], s, _gathered(amps, action, b.start, min(b.stop, size)),
                           dest[b], None if lam is None else lam[b])

    _share(block, len(overlaps), size)
    return sum(overlaps)


def _gathered(amps: np.ndarray, action: Action, i: int, j: int) -> np.ndarray:
    """amps[table[i:j]] for ranks i..j-1 of one gate block, a new array,
    gathered from the window of whole periods that the head spans from the
    period boundary before rank i; numpy checks every index against it."""
    head, period = action.head, action.period
    base = i - i % period
    span = -(-len(head) // period) * period
    return amps[base:base + span][head[i - base:j - base]]


def _mix(c, block: np.ndarray, s, gathered: np.ndarray, dest: np.ndarray, lam) -> complex:
    """dest = c * block - s * gathered, overwriting `gathered`, with the
    same roundings as the allocating expression; returns <lam|gathered>
    (0 when `lam` is None).  `gathered` dies with this frame, so a blocked
    gate holds one gathered block at a time on each worker."""
    overlap = 0 if lam is None else np.vdot(lam, gathered)
    np.multiply(c, block, out=dest)
    np.multiply(s, gathered, out=gathered)
    np.subtract(dest, gathered, out=dest)
    return overlap


def apply_phase(state: FeasibleState, gamma: float, cost: np.ndarray,
                out: FeasibleState | None = None) -> FeasibleState:
    """Diagonal phase exp(-i gamma * cost) per tour, for the rank-indexed
    cost vector `cost`; probabilities untouched.  The result is written to
    `out` (a state other than `state`), or to a new state when `out` is
    omitted, and returned."""
    out = _target(state, cost, out)
    _phase_factors(gamma, cost, out.amps)
    np.multiply(out.amps, state.amps, out=out.amps)
    return out


def _phase_factors(gamma: float, cost: np.ndarray, dest: np.ndarray) -> None:
    """Write exp(-i gamma * cost) to `dest`."""
    np.multiply(-1j * gamma, cost, out=dest)
    np.exp(dest, out=dest)


def run_steps(state: FeasibleState, steps, thetas) -> FeasibleState:
    """Apply exp(-i thetas[k] G) for every step (G, k) in order.

    A step's generator G is an involution's `Action` (applied by
    `apply_involution_exp`) or a rank-indexed cost vector (applied by
    `apply_phase`); k indexes `thetas`, which needs one entry per index up
    to the largest, as steps may share an angle.  The steps alternate
    between `state`, which is overwritten, and one more state.  On a state
    longer than `GATE_BLOCK` amplitudes, runs of local steps go block by
    block, with the same amplitudes bit for bit.
    """
    spare = FeasibleState(state.n, np.empty_like(state.amps))
    return _run(state, (state, spare), steps, _angles(steps, thetas))[0]


def _angles(steps, thetas) -> np.ndarray:
    """`thetas` as floats, with one entry per angle index up to the largest."""
    thetas = np.asarray(thetas, dtype=float)
    need = 1 + max((k for _, k in steps), default=-1)
    if thetas.shape != (need,):
        raise ValueError(f"need {need} angles, got shape {thetas.shape}")
    return thetas


def _run(state: FeasibleState, pair, steps, thetas, first: int = 0, saved=None):
    """Apply steps[first:] to `state`, each step writing to the state of
    `pair` that is not its input, or to saved[i] when `saved` holds the
    index i of the step after it; returns the final state and the other
    state of `pair`.  On a state longer than `GATE_BLOCK` amplitudes, a
    run of two or more consecutive local steps (`_runs`) goes block by
    block (`_blocked`); every other step is a whole-state gate or phase,
    so a shorter state takes one step at a time throughout."""
    block = _run_block() if len(state.amps) > GATE_BLOCK else 0
    runs = _runs(steps, first, block) if block else {}
    i = first
    while i < len(steps):
        if i in runs:
            chain = [state]  # chain[t] is the input of the run's step t
            for t in range(i, runs[i]):
                chain.append(_dest(chain[-1], pair, saved, t))
            _blocked(chain, steps[i:runs[i]], thetas, block)
            state, i = chain[-1], runs[i]
            continue
        generator, k = steps[i]
        out = _dest(state, pair, saved, i)
        if isinstance(generator, Action):
            state = apply_involution_exp(state, generator, thetas[k], out=out)
        else:
            state = apply_phase(state, thetas[k], generator, out=out)
        i += 1
    return state, pair[1] if state is pair[0] else pair[0]


def _dest(state: FeasibleState, pair, saved, i: int) -> FeasibleState:
    """The state step i writes from `state`: saved[i + 1] when `saved`
    holds it, else the state of `pair` that is not `state`."""
    out = saved.get(i + 1) if saved else None
    if out is None:
        out = pair[1] if state is pair[0] else pair[0]
    return out


def _runs(steps, first: int, block: int) -> dict:
    """The runs of consecutive local steps in steps[first:], one step or
    more each, as start index -> end index (exclusive)."""
    runs, i = {}, first
    while i < len(steps):
        j = i
        while j < len(steps) and _local(steps[j][0], block):
            j += 1
        if j > i:
            runs[i] = j
        i = max(j, i + 1)
    return runs


def _run_block() -> int:
    """Amplitudes per block of a blocked run: the largest multiple of F,
    the largest factorial <= GATE_BLOCK, that is <= GATE_BLOCK.  With
    GATE_BLOCK >= 2, F = m! >= 2, and a state longer than the block has
    degree m or more, so every block, the last one too, holds whole
    multiples of F: an even length, which a phase step needs (see
    `GATE_BLOCK`)."""
    f = m = 1
    while f * (m + 1) <= GATE_BLOCK:
        m += 1
        f *= m
    return GATE_BLOCK - GATE_BLOCK % f


def _local(generator, block: int) -> bool:
    """Whether a step maps each run of `block` ranks onto itself: a phase
    step, or an `Action` whose period divides the block (for a right
    action, a period of at most F ranks)."""
    return not isinstance(generator, Action) or block % generator.period == 0


def _blocked(chain, steps, thetas: np.ndarray, block: int) -> None:
    """Apply a run of local steps one block of `block` amplitudes at a
    time (the last block may be shorter), every step of the run on a block
    before the worker takes another (`_share`), step t reading chain[t] and
    writing chain[t+1].  A gate gathers a block from its own slice through
    the first ranks of its head, bounds-checked by numpy; each amplitude
    goes through the operations of `apply_involution_exp` and
    `apply_phase`, bit for bit, because a phase is split only on this
    grid of even-length blocks.  A step that does not fit the states is
    refused before any is written."""
    for generator, _ in steps:
        _fits(chain[0], generator)
    mixes = [(np.cos(thetas[k]), 1j * np.sin(thetas[k])) if isinstance(generator, Action)
             else None for generator, k in steps]
    size = len(chain[0].amps)

    def run_block(t):
        b = slice(t * block, (t + 1) * block)
        for (generator, k), mix, src, dest in zip(steps, mixes, chain, chain[1:]):
            amps, out = src.amps[b], dest.amps[b]
            if mix is None:
                _phase_factors(thetas[k], generator[b], out)
                np.multiply(out, amps, out=out)
            else:
                _mix(mix[0], amps, mix[1], amps[generator.head[:len(amps)]], out, None)

    _share(run_block, -(-size // block), size)


def _share(task, blocks: int, size: int) -> None:
    """Call task(t) once for every block t in range(blocks) of a step on
    `size` amplitudes: shared out among the worker team (`workers.share`)
    when the state spans more than 8 gate blocks, else in order in this
    thread.  Blocks are independent, so the order in which they run
    changes no amplitude."""
    if not (size > 8 * GATE_BLOCK and workers.share(task, blocks)):
        for t in range(blocks):
            task(t)


def circuit_steps(seq: GeneratingSequence) -> list:
    """One right-acting step per sequence element, each with its own angle."""
    return [(involution_action(h), k) for k, h in enumerate(seq.elements)]


def run_exhaustive_circuit(seq: GeneratingSequence, thetas, start: Perm) -> FeasibleState:
    """Apply the parametrised exponential of every sequence element in
    order to the basis state of `start`.  A left-acting sequence runs its
    right-acting steps from start^-1 and reads the state through J =
    `inverse_ranks`: h . p = (p^-1 . h)^-1."""
    if len(start) != seq.n:
        raise ValueError(f"start tour has degree {len(start)}, sequence degree {seq.n}")
    if seq.action_side == "right":
        return run_steps(basis_state(start), circuit_steps(seq), thetas)
    state = run_steps(basis_state(inverse(start)), circuit_steps(seq), thetas)
    return FeasibleState(seq.n, state.amps[inverse_ranks(seq.n)])


def expectation_gradient(state: FeasibleState, steps, thetas, cost: np.ndarray) -> np.ndarray:
    """Gradient over `thetas` of expectation(run_steps(state, steps,
    thetas), cost), from one reverse sweep.

    A step U = exp(-i theta G) has dU/dtheta = -i G U.  With psi the state
    just after a step and lam the costate, the later steps undone on
    C psi_final, the step's term is 2 Im <lam|G psi>; steps that share an
    angle add their terms.  The sweep runs forward to psi_final, sets
    lam = C psi_final and walks back, undoing each step on psi (for an
    involution from the G psi it gathered for the term) and on lam
    (Jones & Gacon, arXiv:2009.02823).  It costs about three circuits and
    alternates four states; `state` is overwritten.
    """
    thetas = _angles(steps, thetas)
    psi, spare = _run(state, (state, _target(state, cost)), steps, thetas)
    return _sweep(psi, spare, _target(psi, cost), _target(psi, cost), steps, thetas, cost)


def _sweep(psi: FeasibleState, psi_spare: FeasibleState, lam: FeasibleState,
           lam_spare: FeasibleState, steps, thetas: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """The reverse sweep of `expectation_gradient` from psi = psi_final,
    the state `steps` prepared at `thetas`.  It walks psi back through
    `psi` and `psi_spare` and the costate through `lam` and `lam_spare`,
    overwriting all four.  A phase step undoes psi and lam with one
    exp(+i theta C), computed in `lam_spare`."""
    _target(psi, cost, lam)  # a cost of the wrong length would broadcast
    np.multiply(cost, psi.amps, out=lam.amps)
    grad = np.zeros(thetas.shape)
    for generator, k in reversed(steps):
        theta = thetas[k]
        if isinstance(generator, Action):
            overlap = _gate(psi.amps, generator, -theta, psi_spare.amps, lam.amps)
            apply_involution_exp(lam, generator, -theta, out=lam_spare)
        else:
            np.multiply(generator, psi.amps, out=psi_spare.amps)
            overlap = np.vdot(lam.amps, psi_spare.amps)
            _phase_factors(-theta, generator, lam_spare.amps)
            np.multiply(lam_spare.amps, psi.amps, out=psi_spare.amps)
            np.multiply(lam_spare.amps, lam.amps, out=lam_spare.amps)
        grad[k] += 2 * overlap.imag
        psi, psi_spare = psi_spare, psi
        lam, lam_spare = lam_spare, lam
    return grad


class Circuit:
    """The circuit of `steps` on `initial`, for a run that evaluates it
    at many angles, against the rank-indexed cost vector `cost`.

    `value`, `gradient` and `state` are the expectation, its gradient
    and the final state at angles x.  Each runs the forward pass to
    psi_final at x, keeping x (compared bit for bit, so -0.0 and 0.0
    differ), psi_final, and the state before `CHECKPOINTS` step indices
    at an even stride, the first of them `initial`.  At the same x the
    pass reuses psi_final outright; at another x it resumes from the last
    checkpoint at or before the first step whose angle changed.  Every
    amplitude goes through the operations of `run_steps` and
    `expectation_gradient` in their order, so every result is bit for
    bit theirs.  The circuit holds its checkpoints, two states for the
    pass and two for the gradient's costate, and allocates no state for a
    value or a gradient; `initial` becomes its own and is never written.
    A step or a cost that does not fit `initial` is refused here.

    `forward_reuses` counts the passes that reused psi_final and
    `steps_skipped` the steps passes did not run, out of
    `forward_steps`, the steps of a pass from `initial` each time.
    """

    def __init__(self, initial: FeasibleState, steps, cost: np.ndarray):
        if not steps:
            raise ValueError("a circuit needs at least one step")
        for generator, _ in steps:
            _fits(initial, generator)
        _fits(initial, cost)
        self.steps, self.cost = steps, cost
        self._first = np.full(1 + max(k for _, k in steps), len(steps))
        for i in reversed(range(len(steps))):
            self._first[steps[i][1]] = i
        self._marks = list(range(0, len(steps), -(-len(steps) // CHECKPOINTS)))
        self._initial = initial
        self._saved = {m: self._blank() for m in self._marks[1:]}
        self._saved[0] = initial
        self._pair = [self._blank(), self._blank()]
        self._costate = (self._blank(), self._blank())
        self._x = None  # the angles the checkpoints hold, None when none hold
        self._final = None  # psi_final at _x, None once a sweep used it
        self.forward_reuses = self.steps_skipped = self.forward_steps = 0

    @property
    def periods(self) -> list:
        """Each angle's period: pi when only gates use it (exp(-i(t+pi)H)
        is -exp(-i t H) for an involution H, a global phase), None for a
        phase-separator angle."""
        phases = {k for generator, k in self.steps if not isinstance(generator, Action)}
        return [None if k in phases else np.pi for k in range(len(self._first))]

    def _forward(self, x) -> FeasibleState:
        """psi_final at x, held in a state of the pass."""
        x = _angles(self.steps, x)
        self.forward_steps += len(self.steps)
        first = 0
        if self._x is not None:
            changed = self._first[x.view(np.int64) != self._x.view(np.int64)]
            if not changed.size and self._final is not None:
                self.forward_reuses += 1
                self.steps_skipped += len(self.steps)
                return self._final
            first = self._marks[bisect_right(self._marks, changed.min(initial=len(self.steps))) - 1]
        # a pass that raises leaves checkpoints of two points behind
        self._x = self._final = None
        self.steps_skipped += first
        psi, _ = _run(self._saved[first], self._pair, self.steps, x, first, self._saved)
        self._x, self._final = x.copy(), psi
        return psi

    def _blank(self) -> FeasibleState:
        return FeasibleState(self._initial.n, np.empty_like(self._initial.amps))

    def _spare(self, psi: FeasibleState) -> FeasibleState:
        return self._pair[1] if psi is self._pair[0] else self._pair[0]

    def value(self, x) -> float:
        """expectation(run_steps(initial, steps, x), cost)."""
        psi = self._forward(x)
        return expectation(psi, self.cost, out=self._spare(psi))

    def gradient(self, x) -> np.ndarray:
        """expectation_gradient(initial, steps, x, cost); its sweep starts
        from the kept psi_final and uses it up."""
        psi = self._forward(x)
        self._final = None
        return _sweep(psi, self._spare(psi), *self._costate, self.steps, self._x, self.cost)

    def state(self, x) -> FeasibleState:
        """run_steps(initial, steps, x), handed over: the circuit forgets
        the returned state and takes a new one for later passes."""
        psi = self._forward(x)
        self._final = None
        self._pair[0 if psi is self._pair[0] else 1] = self._blank()
        return psi


def reachability_params(seq: GeneratingSequence, start: Perm, target: Perm) -> np.ndarray:
    """Angles pi/2 * mask that drive `start` exactly onto `target`.

    The element carrying start to target on the declared action side is
    decomposed over the sequence; at angle pi/2 each selected factor acts
    as -i times its permutation operator, so the final state is `target`
    up to a global phase.
    """
    check_perm(start)
    check_perm(target)
    if seq.action_side == "right":
        g = compose(inverse(target), start)
    else:
        g = compose(target, inverse(start))
    mask = decompose(seq, g)
    return np.pi / 2 * np.asarray(mask, dtype=float)


def expectation(state: FeasibleState, cost: np.ndarray,
                out: FeasibleState | None = None) -> float:
    """Sum of |amp|^2 times tour cost, for the rank-indexed cost vector
    `cost`; lies between min and max cost.  The weighted amplitudes are
    written to `out` (a state other than `state`), or to a new state when
    `out` is omitted."""
    weighted = _target(state, cost, out).amps
    np.multiply(cost, state.amps, out=weighted)
    return float(np.real(np.vdot(state.amps, weighted)))


def probabilities(state: FeasibleState) -> np.ndarray:
    return np.abs(state.amps) ** 2


def sample(state: FeasibleState, seed: int, k: int) -> list[Perm]:
    """k tours drawn per |amp|^2, reproducible for a fixed seed."""
    rng = np.random.default_rng(seed)
    probs = probabilities(state)
    probs = probs / probs.sum()
    ranks = rng.choice(len(probs), size=k, p=probs)
    return [unrank(int(r), state.n) for r in ranks]


def fidelity(state: FeasibleState, target: Perm) -> float:
    """|<target|state>| for a basis target."""
    if len(target) != state.n:
        raise ValueError(f"target tour has degree {len(target)}, state degree {state.n}")
    return float(np.abs(state.amps[rank(target)]))
