"""Exact simulation in the feasible subspace.

States are complex amplitude vectors over all n! tour permutations,
indexed by Lehmer rank; infeasible bit strings simply do not exist in
this representation.  Exponentials of involutory permutation operators
reduce to cos(theta) * amps - i sin(theta) * gathered amps, so a gate is
one vectorised gather-and-mix pass through the involution's rank table.

An `Action` holds that table as a map of chunks: an element that moves
positions s..e maps each run of P = (n-s)! consecutive ranks onto
itself, the same way in each, and within a run moves whole chunks of
B = (n-e-1)! consecutive ranks, so `perms.right_action` builds only the
K = P/B chunk ranks of one run, which `perms.take_chunks` applies: all
an `Action` holds on a state of more than one block.  A left action is a
right action between two relabellings by J, the rank table of p -> p^-1.
A circuit is a list of steps, each a generator (an `Action` or a
`Phase`, a diagonal cost vector split into two small tables) tied to an
angle; `run_steps` alternates its steps between the state and one spare
state, in runs of the block loop below.

A phase step exp(-i gamma C) never calls exp once a tour: a `Phase`
writes rank r = q * S + u, S = (n-k)!, as the rank q of the tour's first
k cities and the Lehmer rank u of the order of the rest, and C[r] as
head[q] + tail[group[q], u], so the step's factors are products
exp(-i gamma head)[q] * exp(-i gamma tail)[group[q], u] of two tables it
computes once, before its blocks are shared out (`_exp`).

Every step goes through one block loop, `_blocked`, on one grid: a state
of at most `GATE_BLOCK` amplitudes is one block, and a longer one is cut
into equal blocks of c * m! amplitudes with c dividing m + 1 (`_block`).
Every period (n-s)! and every chunk (n-e-1)! then either divides the
block or is a multiple of it, so no block straddles a period or a chunk:
a gate copies part of one chunk, or gathers whole chunks through the
chunk ranks, those of a block of whole periods or of its rows of one
period (`_gathered`), every chunk rank checked against K, with the same
amplitudes, bit for bit, whether or not `out` is given.  A run
of consecutive local steps (phase steps, and gates whose period divides
the block) maps each block onto itself, so it goes block by block, every
step of the run on one block while the block stays in cache, with the
amplitudes of one step at a time; a gate whose period does not divide
the block is a run of its own, and on a one-block state the whole circuit
is one run.

On a state of more than 8 * `GATE_BLOCK` amplitudes (2.5 MB, past the
L2 that `GATE_BLOCK` assumes: degree 9 and up; `_shared`), the blocks of
a run are shared out among the team of `workers.WORKERS` threads, one per
CPU the process may run on (`taskset` limits it), the calling thread
among them.  Its other threads start the first time a step qualifies, so
smaller states start none.  The amplitudes, and the gradient's terms
summed in block order, are those of one thread in raw bytes.

On such a state a forward pass also keeps a mask of the blocks that may
hold a nonzero amplitude (`_run`), and a run writes +0.0 to every output
of a block the mask rules out instead of gathering and mixing it, so a
circuit that starts from one tour computes only the blocks its state has
reached; it writes such a block only when its destination may hold
something other than +0.0 (a spare the pass allocated with `np.zeros`,
or a block it wrote +0.0 to, does not).  Where another grid's kernel
computes such a block it may write -0.0, so across grids (a blocked pass
against a one-block or whole-row one) the amplitudes are the same up to
the sign of zero: equal values, and equal bytes once +0.0 is added;
every nonzero amplitude, and every expectation and gradient, keeps its
bits.  On one grid (the team against
one thread, a `Circuit` against a fresh pass) they are the same in raw
bytes.  The reverse sweep, `expectation` and single steps skip nothing.

`expectation_gradient` differentiates a circuit's expected cost over all
its angles by one reverse sweep, which undoes each step, gate or phase,
on the state and the costate in one call of the same block loop, summing
the step's overlap block by block.  A `Circuit` keeps its last forward
pass: the final state and a few prefix checkpoints, from which its value,
its gradient's sweep and its final state at a nearby point resume, with
the same amplitudes bit for bit, and the phase factors exp(-i gamma C) of
a few angles gamma, which later passes at the same gamma multiply by.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    take_chunks,
    unrank,
)
from .sequences import GeneratingSequence, decompose

# The bound on a block of amplitudes: a state of at most GATE_BLOCK
# amplitudes is one block, and a longer one is cut into blocks of the
# largest c * m! <= GATE_BLOCK with c dividing m + 1 (20 160 = 8!/2 =
# 4 * 7!, `_block`), so that every factorial divides the block or is a
# multiple of it, and a block's passes (about 48 bytes an amplitude, with
# a local gate's period of at most 7! ranks) stay in a 2 MB L2.  Every
# block has an even length (GATE_BLOCK >= 2), and so has every row of S
# ranks of a phase's tables (`Phase`, S = (n-k)! with n - k >= 2) that a
# block's factors are multiplied in: with numpy 2.4 on x86-64, a complex
# multiply over an odd length (7 amplitudes, say) may round its tail
# differently from the call over the whole array.  A gate
# on a one-block state is one gather through its action's whole table.  A
# state of more than 8 * GATE_BLOCK amplitudes (2.5 MB) shares its blocks
# out among the worker team.
GATE_BLOCK = 20160

# States a `Circuit` keeps of its last forward pass: the state before step
# 0 (the initial state) and before every stride-th step after it; and the
# most arrays of phase factors it holds, one a state's size.  At degree 8
# a state is 645 KB.
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
    """How a permutation acts on the Lehmer ranks of degree-n tours: in
    every period of `period` = P ranks it moves whole chunks of `chunk` =
    B consecutive ranks, local rank k*B + b going to mid[k]*B + b, for
    mid the K = P/B chunk ranks of `perms.right_action`.

    `index` is mid, on every grid: one writeable int64 array, as
    `np.take` copies a read-only index on every call; for B = 1 it is the
    period.  `take`, `table` (the whole n!-entry rank table, gathered on
    a one-block state's first gate and kept) and the gathers of longer
    states apply it through `perms.take_chunks`.
    """

    n: int
    period: int
    chunk: int
    index: np.ndarray

    @classmethod
    def of(cls, n: int, mid: np.ndarray, chunk: int = 1) -> "Action":
        """The degree-n action that moves chunks of `chunk` ranks by the
        chunk ranks `mid` in every period of P = len(mid) * chunk ranks
        (with the default chunk of 1, `mid` is the period).  P must divide
        n! and, like the chunk, be a factorial (ValueError otherwise), so
        each divides every block (`_block`) or is a multiple of it; `mid`
        must hold ranks in 0..K-1 (IndexError otherwise)."""
        size, k = factorial(n), len(mid)
        p = k * chunk
        if not p or size % p:
            raise ValueError(f"a period of {p} ranks does not divide {n}! = {size}")
        for name, ranks in (("period", p), ("chunk", chunk)):
            if ranks not in {factorial(m) for m in range(n + 1)}:
                raise ValueError(f"a {name} of {ranks} ranks is not a factorial")
        if mid.min() < 0 or mid.max() >= k:
            raise IndexError(f"{k} chunk ranks have entries outside 0..{k - 1}")
        return cls(n, p, chunk, mid)

    @cached_property
    def table(self) -> np.ndarray:
        """The whole rank table, read-only, gathered from the n! ranks on
        first use and kept."""
        table = self.take(np.arange(factorial(self.n)))
        table.setflags(write=False)
        return table

    @property
    def nbytes(self) -> int:
        """Bytes of the action's arrays: 8 a chunk rank, and 8 a rank of
        the whole table once a one-block gather has derived it."""
        return self.index.nbytes + getattr(self.__dict__.get("table"), "nbytes", 0)

    def take(self, values: np.ndarray) -> np.ndarray:
        """values[table] for all n! ranks, gathered through the chunk ranks
        (`perms.take_chunks`); a new array."""
        if len(values) != factorial(self.n):
            raise ValueError(f"{len(values)} values for a degree-{self.n} action")
        return take_chunks(values, self.index, self.chunk)


@lru_cache(maxsize=None)
def involution_action(element: Perm) -> Action:
    """The `Action` of one involution on all of S_n, mapping rank(p) ->
    rank(p . element) (slot semantics), with the chunk ranks of
    `perms.right_action`; it serves every grid for the life of the
    process.  The table is itself an involution on 0..n!-1."""
    if not is_involution(element):
        raise ValueError(f"element is not an involution: {element}")
    n = len(element)
    limits.check("state", n)
    return Action.of(n, *right_action(element))


@dataclass(frozen=True, eq=False)
class Phase:
    """The generator of a phase step: the rank-indexed cost vector `cost`
    of n! entries, split as cost[q * S + u] = head[q] + tail[group[q], u]
    for S = tail.shape[1], the `tail` rows of every group of prefixes q.
    S must divide n! and be a factorial, so that it divides every block
    (`_block`) or is a multiple of it, and is even for n >= 2.

    `tsp.TourCost.phase` splits a tour cost at its k-th city, with
    S = (n-k)!: head[q] is the cost of the edges of the first k cities q
    visits, group[q] stands for the cities left and the last (and first)
    of them, and tail[g, u] is the cost of the edges from that last city
    through the rest in the order of Lehmer rank u.  `Phase.of` splits
    any vector in one group."""

    cost: np.ndarray
    head: np.ndarray
    group: np.ndarray
    tail: np.ndarray

    @classmethod
    def of(cls, cost) -> "Phase":
        """Any cost vector, as float64 (not copied when it is), in one
        group: head 0 and one tail row, the vector itself."""
        cost = np.asarray(cost, dtype=float)
        return cls(cost, np.zeros(1), np.zeros(1, dtype=np.intp), cost.reshape(1, -1))

    def __len__(self) -> int:
        return len(self.cost)

    def factors(self, gamma) -> tuple:
        """(exp(-i gamma head), exp(-i gamma tail), group): the two tables
        whose products are exp(-i gamma cost) (`_exp`)."""
        head, tail = -1j * gamma * self.head, -1j * gamma * self.tail
        return np.exp(head, out=head), np.exp(tail, out=tail), self.group


def apply_involution_exp(state: FeasibleState, action: Action, theta: float,
                         out: FeasibleState | None = None) -> FeasibleState:
    """exp(-i theta H) for the involutory permutation operator H given by
    an `Action` a: amps'[r] = cos(theta) amps[r] - i sin(theta) amps[a(r)].

    Orbit pairs {r, a(r)} are independent, so the whole update is one
    gather; fixed points of the action pick up the phase exp(-i theta).
    The result is written to `out` (a state other than `state`), or to a
    new state when `out` is omitted, and returned.  A state longer than
    `GATE_BLOCK` amplitudes is gathered and mixed a block at a time
    (`_blocked`); an index out of range raises IndexError either way, and
    an action of another degree than the state's ValueError.
    """
    out = _target(state, action, out)
    _blocked([state.amps, out.amps], [(action, 0)], (theta,))
    return out


def _fits(state: FeasibleState, generator) -> None:
    """Refuse a step's generator that does not fit `state`: an `Action` of
    another degree, or a cost vector without one entry per amplitude."""
    if isinstance(generator, Action):
        if generator.n != state.n:
            raise ValueError(f"action of degree {generator.n} for a state of degree {state.n}")
    elif len(generator) != len(state.amps):
        raise ValueError(f"generator has {len(generator)} entries for {len(state.amps)} amplitudes")


def _fits_all(state: FeasibleState, steps) -> None:
    """Refuse, before any state is written, a step list with a generator
    that is neither an `Action` nor a `Phase` (TypeError) or does not fit
    `state` (`_fits`)."""
    for generator, _ in steps:
        if not isinstance(generator, (Action, Phase)):
            raise TypeError(f"a step's generator is an Action or a Phase, not {type(generator).__name__}")
        _fits(state, generator)


def _target(state: FeasibleState, generator, out: FeasibleState | None = None) -> FeasibleState:
    """`out`, or a new state when it is None, for a step whose generator
    must fit `state` (`_fits`)."""
    _fits(state, generator)
    if out is None:
        return FeasibleState(state.n, np.empty_like(state.amps))
    if out is state or out.amps is state.amps:
        raise ValueError("out must not be the input state")
    return out


def apply_phase(state: FeasibleState, gamma: float, phase: Phase,
                out: FeasibleState | None = None) -> FeasibleState:
    """Diagonal phase exp(-i gamma * cost) per tour, for the `Phase` of
    the rank-indexed cost vector, from its tables (`_exp`); probabilities
    untouched.  The result is written to `out` (a state other than
    `state`), or to a new state when `out` is omitted, and returned."""
    _fits_all(state, [(phase, 0)])
    out = _target(state, phase, out)
    _blocked([state.amps, out.amps], [(phase, 0)], (gamma,))
    return out


def run_steps(state: FeasibleState, steps, thetas) -> FeasibleState:
    """Apply exp(-i thetas[k] G) for every step (G, k) in order.

    A step's generator G is an involution's `Action` (a gate, as
    `apply_involution_exp` applies it) or a `Phase` (as `apply_phase`
    applies it); k indexes `thetas`, which needs one entry per index up
    to the largest, as steps may share an angle.
    The steps alternate between `state`, which is overwritten, and one
    more state, in runs that go block by block (`_run`), with the
    amplitudes of one step at a time bit for bit.
    """
    _fits_all(state, steps)
    return _run(state, (state, None), steps, _angles(steps, thetas))[0]


def _angles(steps, thetas) -> np.ndarray:
    """`thetas` as floats, with one entry per angle index up to the largest."""
    thetas = np.asarray(thetas, dtype=float)
    need = 1 + max((k for _, k in steps), default=-1)
    if thetas.shape != (need,):
        raise ValueError(f"need {need} angles, got shape {thetas.shape}")
    return thetas


def _run(state: FeasibleState, pair, steps, thetas, first: int = 0, saved=None, held=None):
    """Apply steps[first:] to `state`, each step writing to the state of
    `pair` that is not its input, or to saved[i] when `saved` holds the
    index i of the step after it; returns the final state and the other
    state of `pair`.  A pair (state, None) gets a spare allocated with
    `np.zeros`, which leaves its pages untouched.  The steps go in runs,
    each one `_blocked` call: a gate whose period does not divide the
    block (`_block`) reads other blocks of its input, so it is a run of
    its own, and consecutive local steps (`_local`) form one run.  On a one-block state every step is
    local, so the whole list is one run.  held[i], when given, holds step
    i's phase factors (`_kernel`).  The steps must fit `state`
    (`_fits_all`).

    On a state the team shares (`_shared`), the pass keeps `live`, one
    flag a block, false only for a block that holds no nonzero amplitude;
    each rule is exact or errs toward live.  It starts as `_any` of each
    block of the input, the initial state or a checkpoint.  A run of local
    steps maps each block onto itself unitarily, so it keeps the mask.  A
    non-local gate, a run of its own, may write to every block of a period
    that holds a live block, and re-marks each block it computes by `_any`
    of its output (`_blocked`).  So a pass resumed from a checkpoint skips
    the blocks a pass from the initial state skips.  The pass also keeps,
    for each array it writes, keyed by the array's id, `zero`: the blocks
    it knows hold +0.0, every block of a spare it allocated and each block
    it wrote +0.0 to and has not written since, so that a skipped block is
    written only when its destination may hold something else."""
    block = _block(len(state.amps))
    spare = None
    if pair[1] is None:
        spare = np.zeros(len(state.amps), dtype=complex)
        pair = state, FeasibleState(state.n, spare)
    live = zero = None
    if _shared(len(state.amps)):
        live = np.array([_any(state.amps[i:i + block]) for i in range(0, len(state.amps), block)])
        zero = {} if spare is None else {id(spare): np.ones(len(live), dtype=bool)}
    i = first
    while i < len(steps):
        j = i + 1
        if _local(steps[i][0], block):
            while j < len(steps) and _local(steps[j][0], block):
                j += 1
        chain = [state]  # chain[t] is the input of the run's step t
        for t in range(i, j):
            chain.append(_dest(chain[-1], pair, saved, t))
        outputs = None if zero is None else [
            zero.setdefault(id(s.amps), np.zeros(len(live), dtype=bool)) for s in chain[1:]]
        _blocked([s.amps for s in chain], steps[i:j], thetas, held=held and held[i:j], live=live,
                 zero=outputs)
        state, i = chain[-1], j
    return state, pair[1] if state is pair[0] else pair[0]


def _dest(state: FeasibleState, pair, saved, i: int) -> FeasibleState:
    """The state step i writes from `state`: saved[i + 1] when `saved`
    holds it, else the state of `pair` that is not `state`."""
    out = saved.get(i + 1) if saved else None
    if out is None:
        out = pair[1] if state is pair[0] else pair[0]
    return out


def _block(size: int) -> int:
    """Amplitudes per block of a step on a state of `size` amplitudes: the
    whole state when it holds at most GATE_BLOCK, else the largest c * m!
    <= GATE_BLOCK with c dividing m + 1, for the m with m! <= GATE_BLOCK <
    (m + 1)! (a smaller m gives m! at most).  Every k! with k <= m divides
    the block, and every k! with k > m is a multiple of it, as (m + 1)! is
    (m + 1) / c blocks; a longer state has degree above m, so it holds
    whole blocks.  With GATE_BLOCK >= 2 the block is even (see
    `GATE_BLOCK`)."""
    if size <= GATE_BLOCK:
        return size
    f = m = 1
    while f * (m + 1) <= GATE_BLOCK:
        m += 1
        f *= m
    return max(c * f for c in range(1, m + 1) if (m + 1) % c == 0 and c * f <= GATE_BLOCK)


def _local(generator, block: int) -> bool:
    """Whether a step maps each run of `block` ranks onto itself: a phase
    step, or an `Action` whose period divides the block (for a right
    action, a period of at most F ranks)."""
    return not isinstance(generator, Action) or block % generator.period == 0


def _blocked(arrays, steps, thetas, costate=None, held=None, live=None, zero=None) -> complex:
    """Apply a run of steps, step t reading arrays[t] and writing
    arrays[t+1], one block (`_block`) at a time, every step on a block
    before the worker takes another (`_share`), so every step but the
    first must be local (`_local`).  With a costate (lam, lam_out), the
    run is one step exp(-i theta G), G a gate or a phase's cost vector,
    which is also applied to lam, written to lam_out, and the call
    returns <lam|G psi> for psi = arrays[0], summed in block order (0
    without a costate).  held[t], when given, holds step t's phase factors
    (`_kernel`).  A phase step computes its two exp tables here, once
    (`Phase.factors`), unless it multiplies by held factors it does not
    build.  Each amplitude goes through the same operations whatever the
    block, bit for bit, because a phase's factors are products of the
    same table entries on any grid, and a block's operations run over
    even lengths.  The callers check once that the steps fit the arrays
    (`_fits_all`, `_target`).

    `live`, the mask of a forward pass (`_run`), and `zero`, its masks of
    the blocks known to hold +0.0 in arrays[1:], when given: a run of
    local steps writes +0.0 to every output of a block it rules out that
    is not known to hold it, and a non-local gate to every such block of
    a period without a live block, and re-marks each block it computes by
    `_any` of its output, while the block is in cache.  A skipped block
    still builds the factors that held[t] builds, so a held array is
    whole for later passes to read."""
    factors = []
    for t, (generator, k) in enumerate(steps):
        if isinstance(generator, Action):
            factors.append((np.cos(thetas[k]), 1j * np.sin(thetas[k])))
        else:
            reads = held and held[t] and not held[t][1]
            factors.append(None if reads else generator.factors(thetas[k]))
    size = len(arrays[0])
    if size <= GATE_BLOCK:
        return _kernel(arrays, steps, factors, costate, held)
    block = _block(size)
    overlaps = [0] * (size // block)
    reach = live
    if live is not None and not _local(steps[0][0], block):
        per = steps[0][0].period // block
        reach = live.reshape(-1, per).any(axis=1).repeat(per)

    def task(t):
        i = t * block
        if reach is not None and not reach[t]:
            for u, out in enumerate(arrays[1:]):
                if not zero[u][t]:
                    out[i:i + block] = 0
                    zero[u][t] = True
                if held and held[u] and held[u][1]:
                    _exp(factors[u], i, held[u][0][i:i + block])
            return
        overlaps[t] = _kernel(arrays, steps, factors, costate, held, i, i + block)
        if zero is not None:
            for known in zero:
                known[t] = False
        if reach is not live:
            live[t] = _any(arrays[1][i:i + block])

    _share(task, len(overlaps), size)
    return sum(overlaps)


def _kernel(arrays, steps, factors, costate, held, i: int = 0, j: int | None = None) -> complex:
    """Apply the steps of `_blocked` to ranks i..j-1, or to whole arrays
    when j is None: a gate as `_mix` of its gather with factors[t] =
    (cos, i sin) of its angle, a phase C as exp(-i gamma C) from its exp
    tables factors[t] (`_exp`), times its input; a gate gathers its input
    through `_gathered`.  A phase computes its factors into `dest`, or,
    when held[t] is (array, build), into the array's ranks i..j-1 when
    build is true, with the same operations on the same block, and reads
    them there.  With a costate, the one step, gate or phase, is also
    applied to lam, and its G psi (a gate's gather, or C psi written to
    `dest` first) gives the block's overlap <lam|G psi>, which it returns
    (0 without a costate).  It runs once a block, holding the
    interpreter lock between numpy calls, so it slices each array once
    and keeps its work per step small."""
    src = arrays[0] if j is None else arrays[0][i:j]
    lam = lam_out = None
    if costate is not None:
        lam, lam_out = costate if j is None else (costate[0][i:j], costate[1][i:j])
    overlap = 0
    for t, (generator, _) in enumerate(steps):
        dest = arrays[t + 1] if j is None else arrays[t + 1][i:j]
        if isinstance(generator, Action):
            c, s = factors[t]
            gathered = _gathered(arrays[t], generator, i, j)
            overlap = _mix(c, src, s, gathered, dest, lam)
            del gathered  # a worker holds one gathered block at a time
            if lam is not None:
                _mix(c, lam, s, _gathered(costate[0], generator, i, j), lam_out)
        else:
            if lam is not None:
                np.multiply(generator.cost if j is None else generator.cost[i:j], src, out=dest)
                overlap = np.vdot(lam, dest)
            phase, build = held[t] if held and held[t] else (arrays[t + 1], True)
            phase = phase if j is None else phase[i:j]
            if build:
                _exp(factors[t], i, phase)
            if lam is not None:
                np.multiply(phase, lam, out=lam_out)
            np.multiply(phase, src, out=dest)
        src = dest
    return overlap


def _any(amps: np.ndarray) -> bool:
    """Whether `amps` holds a nonzero amplitude: the first one settles it
    on a block of a dense state, else every one is read."""
    return bool(amps[0] != 0 or amps.view(np.float64).any())


def _exp(factors, i: int, phase: np.ndarray) -> None:
    """phase = exp(-i gamma cost) on ranks i.. of a block, a phase step's
    factors, from factors = `Phase.factors`(gamma): rank q * S + u gets
    exp(-i gamma head)[q] * exp(-i gamma tail)[group[q], u], written
    through a view of the block as rows of S ranks, or as one row's part
    when the block lies inside a row."""
    head, tail, group = factors
    q, u = divmod(i, tail.shape[1])
    rows = phase.reshape(-1, min(len(phase), tail.shape[1]))
    np.take(tail[:, u:u + rows.shape[1]], group[q:q + len(rows)], axis=0, out=rows, mode="clip")
    np.multiply(head[q:q + len(rows), None], rows, out=rows)


def _gathered(amps: np.ndarray, action: Action, i: int, j: int | None) -> np.ndarray:
    """amps[table[i:j]], a new array, for ranks i..j-1 of one block, or
    for the whole state when j is None, through `Action.table`.  A block
    inside one chunk (B >= the block) copies part of its source chunk,
    whose rank is checked against K like a gather's (IndexError); any
    other block gathers whole chunks (`perms.take_chunks`), all of its
    own when it holds whole periods, else its rows of its period."""
    if j is None:
        return amps[action.table]
    index, chunk, p = action.index, action.chunk, action.period
    if (j - i) % p == 0:
        return take_chunks(amps[i:j], index, chunk)
    base = i - i % p
    first, offset = divmod(i - base, chunk)
    if chunk >= j - i:
        start = base + range(len(index))[index[first]] * chunk + offset
        return amps[start:start + j - i].copy()
    return take_chunks(amps[base:base + p], index, chunk, first, first + (j - i) // chunk)


def _mix(c, block: np.ndarray, s, gathered: np.ndarray, dest: np.ndarray, lam=None) -> complex:
    """dest = c * block - s * gathered, overwriting `gathered`, with the
    same roundings as the allocating expression; returns <lam|gathered>
    (0 when `lam` is None)."""
    overlap = 0 if lam is None else np.vdot(lam, gathered)
    np.multiply(c, block, out=dest)
    np.multiply(s, gathered, out=gathered)
    np.subtract(dest, gathered, out=dest)
    return overlap


def _share(task, blocks: int, size: int) -> None:
    """Call task(t) once for every block t in range(blocks) of a step on
    `size` amplitudes: shared out among the worker team (`workers.share`)
    when the state spans more than 8 gate blocks, else in order in this
    thread.  Blocks are independent, so the order in which they run
    changes no amplitude."""
    if not (_shared(size) and workers.share(task, blocks)):
        for t in range(blocks):
            task(t)


def _shared(size: int) -> bool:
    """Whether a step on `size` amplitudes shares its blocks out among the
    worker team (more than 8 gate blocks), and a forward pass on it keeps
    the mask of its live blocks (`_run`)."""
    return size > 8 * GATE_BLOCK


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
    _fits_all(state, steps)
    _fits(state, cost)
    psi, spare = _run(state, (state, None), steps, thetas)
    return _sweep(psi, spare, _target(psi, cost), _target(psi, cost), steps, thetas, cost)[0]


def _sweep(psi: FeasibleState, psi_spare: FeasibleState, lam: FeasibleState,
           lam_spare: FeasibleState, steps, thetas: np.ndarray, cost: np.ndarray,
           first=None, stop_above=None) -> tuple:
    """The reverse sweep of `expectation_gradient` from psi = psi_final,
    the state `steps` prepared at `thetas`, and the number of steps it
    undid.  It walks psi back through `psi` and `psi_spare` and the
    costate through `lam` and `lam_spare`, overwriting all four.  Every
    step, gate or phase, undoes psi and lam in one `_blocked` call at the
    negated angles, which sums the step's overlap block by block.

    Angle k's component is final, bit for bit, once the walk has undone
    step first[k], the first step of angle k.  With `stop_above`, the
    sweep adds up the squares of the finished components and returns as
    soon as they pass stop_above^2 * (1 + 1e-9), with every unfinished
    component 0: the norm of that vector and the full gradient's are then
    both past `stop_above`, and the margin is far wider than the rounding
    of any order of summing the squares."""
    _target(psi, cost, lam)  # a cost of the wrong length would broadcast
    np.multiply(cost, psi.amps, out=lam.amps)
    grad = np.zeros(thetas.shape)
    back = -thetas
    done, bound = 0.0, None if stop_above is None else stop_above ** 2 * (1 + 1e-9)
    for i in reversed(range(len(steps))):
        k = steps[i][1]
        overlap = _blocked([psi.amps, psi_spare.amps], [steps[i]], back, (lam.amps, lam_spare.amps))
        grad[k] += 2 * overlap.imag
        psi, psi_spare = psi_spare, psi
        lam, lam_spare = lam_spare, lam
        if bound is not None and first[k] == i:
            done += grad[k] ** 2
            if done > bound:
                grad[first < i] = 0
                return grad, len(steps) - i
    return grad, len(steps)


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
    `expectation_gradient` in their order, so every result is theirs in
    raw bytes.  A phase step of a pass multiplies by the factors
    exp(-i gamma C) of its angle gamma that the circuit holds, keyed on
    gamma's bits, or builds them block by block into an array that no
    phase angle of x needs, which it then holds; when all `CHECKPOINTS`
    arrays are needed, the step computes its factors as `run_steps` does.
    The circuit holds its checkpoints, two states for the pass, two for
    the gradient's costate and, for a circuit with phase steps, at most
    `CHECKPOINTS` arrays of factors, however many its layers; it
    allocates no state for a value or a gradient; `initial` becomes its
    own and is never written.  A step or a cost that does not fit
    `initial` is refused here.

    `forward_reuses` counts the passes that reused psi_final,
    `steps_skipped` the steps passes did not run, out of
    `forward_steps`, the steps of a pass from `initial` each time,
    `sweep_steps` the steps that gradients' reverse sweeps undid, and
    `phase_builds` the phase steps of passes that computed their
    factors, out of the `phase_steps` the passes ran.
    """

    def __init__(self, initial: FeasibleState, steps, cost: np.ndarray):
        if not steps:
            raise ValueError("a circuit needs at least one step")
        _fits_all(initial, steps)
        _fits(initial, cost)
        self.steps, self.cost = steps, cost
        self._first = np.full(1 + max(k for _, k in steps), len(steps))
        for i in reversed(range(len(steps))):
            self._first[steps[i][1]] = i
        self._phases = [(i, k) for i, (generator, k) in enumerate(steps)
                        if not isinstance(generator, Action)]
        self._marks = list(range(0, len(steps), -(-len(steps) // CHECKPOINTS)))
        self._initial = initial
        self._saved = {m: self._blank() for m in self._marks[1:]}
        self._saved[0] = initial
        self._pair = [self._blank(), self._blank()]
        self._costate = (self._blank(), self._blank())
        self._x = None  # the angles the checkpoints hold, None when none hold
        self._final = None  # psi_final at _x, None once a sweep used it
        self._held = {}  # the bits of an angle -> exp(-i angle cost)
        self.forward_reuses = self.steps_skipped = self.forward_steps = self.sweep_steps = 0
        self.phase_builds = self.phase_steps = 0

    @property
    def periods(self) -> list:
        """Each angle's period: pi when only gates use it (exp(-i(t+pi)H)
        is -exp(-i t H) for an involution H, a global phase), None for a
        phase-separator angle."""
        phases = {k for _, k in self._phases}
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
        held, built = self._factors(x, first)
        psi, _ = _run(self._saved[first], self._pair, self.steps, x, first, self._saved, held)
        self._held.update(built)
        self._x, self._final = x.copy(), psi
        return psi

    def _factors(self, x: np.ndarray, first: int) -> tuple:
        """For the pass from step `first` at x: the `held` of `_run`, which
        gives each of its phase steps an array of factors for its angle's
        bits and whether the step builds them there, and the arrays it
        builds, by bits, which the circuit holds once the pass is done.  A
        step builds into an array that no phase angle of x needs, or a new
        one while fewer than `CHECKPOINTS` exist; when every one is needed,
        its entry is None and it computes its factors as `run_steps` does."""
        bits = x.view(np.int64).tolist()
        need = {bits[k] for _, k in self._phases}
        free = [key for key in self._held if key not in need]
        held, built = [None] * len(self.steps), {}
        for i, k in self._phases:
            if i < first:
                continue
            key = bits[k]
            array = self._held.get(key, built.get(key))
            self.phase_steps += 1
            if array is not None:
                held[i] = array, False
                continue
            self.phase_builds += 1
            if free:
                array = self._held.pop(free.pop(0))
            elif len(self._held) + len(built) < CHECKPOINTS:
                array = np.empty_like(self._initial.amps)
            else:
                continue
            built[key] = array
            held[i] = array, True
        return held, built

    def _blank(self) -> FeasibleState:
        return FeasibleState(self._initial.n, np.empty_like(self._initial.amps))

    def _spare(self, psi: FeasibleState) -> FeasibleState:
        return self._pair[1] if psi is self._pair[0] else self._pair[0]

    def value(self, x) -> float:
        """expectation(run_steps(initial, steps, x), cost)."""
        psi = self._forward(x)
        return expectation(psi, self.cost, out=self._spare(psi))

    def gradient(self, x, stop_above=None) -> np.ndarray:
        """expectation_gradient(initial, steps, x, cost); its sweep starts
        from the kept psi_final and uses it up.  With `stop_above`, the
        sweep stops once the components it has finished (each final at
        the first step of its angle) have a norm past stop_above, with a
        margin of 1e-9 in the sum of their squares, and returns them with
        0 for the rest; so the norm of what it returns is below
        stop_above exactly when the full gradient's is."""
        psi = self._forward(x)
        self._final = None
        grad, ran = _sweep(psi, self._spare(psi), *self._costate, self.steps, self._x,
                           self.cost, self._first, stop_above)
        self.sweep_steps += ran
        return grad

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
