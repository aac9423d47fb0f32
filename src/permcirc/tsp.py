"""TSP instances on complete weighted digraphs, tour costs, and the
exact optimum.

Tours are permutations in one-line notation: position t holds the city
visited at time t (0-based).  The reduced cost fixes the last city as
tour start, so reduced tours are permutations of the remaining n-1
cities with the two boundary edges added implicitly.

A tour's cost also splits at its k-th city into the edges through its
first k cities and the rest, which depends only on the cities left, the
last (and, for a full tour, the first) of the k, and the order of the
rest: the (set, last city) state of Held & Karp (J. SIAM 10(1), 1962).
`TourCost.phase` keeps that split as a `feasible.Phase`, whose two small
tables give a QAOA phase separator's factors.
"""

from dataclasses import dataclass, field
from itertools import islice
from math import factorial
from pathlib import Path

import numpy as np

from . import limits
from .feasible import Phase
from .perms import Perm, check_perm, perm_table, unrank


@dataclass(frozen=True)
class TspInstance:
    """Complete weighted digraph without self-loops; every weight finite,
    w[u, v] > 0 for u != v, and every tour's cost finite."""

    w: np.ndarray
    # read-only cost vectors and their `Phase` splits keyed by `reduced`,
    # built once by TourCost
    _cost_vectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _phases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        off = ~np.eye(w.shape[0], dtype=bool)
        if w.shape[0] > 1 and not (w[off] > 0).all():
            raise ValueError("off-diagonal weights must be positive")
        # a tour leaves each city once, so this sum bounds every tour's cost
        with np.errstate(over="ignore"):
            bound = np.where(off, w, 0.0).max(axis=1, initial=0.0).sum()
        if not np.isfinite(bound):
            raise ValueError("weights too large: the largest weights out of each city "
                             "sum to inf, so tour costs would overflow")
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.shape[0]


def tour_cost(inst: TspInstance, p: Perm, reduced: bool = False) -> float:
    """Total weight of the cyclic tour p; with reduced=True, p permutes
    the first n-1 cities and city n is the implicit start and end."""
    check_perm(p)
    want = inst.n - reduced
    if len(p) != want:
        raise ValueError(f"tour degree {len(p)} != {'n-1' if reduced else 'n'} = {want}")
    total = 0.0
    for u, v in _edges(p, inst.n, reduced):
        total += inst.w[u, v]
    return float(total)


def _edges(cities, n: int, reduced: bool) -> list:
    """(from, to) pairs of the cyclic tour through `cities` in order, the
    closing edge last.  A reduced tour is the cyclic tour that starts at
    city n-1; a lone city has no edges.  Cities may be columns of tours."""
    tour = [n - 1] * reduced + list(cities)
    return list(zip(tour, tour[1:] + tour[:1])) if len(tour) > 1 else []


class TourCost:
    """Callable tour-cost function for one instance, and its cost vector
    over all Lehmer ranks of the effective degree."""

    def __init__(self, instance: TspInstance, reduced: bool = False):
        self.instance = instance
        self.reduced = reduced
        self.degree = instance.n - 1 if reduced else instance.n
        if self.degree < 1:
            raise ValueError(f"bad city count {instance.n} for reduced={reduced}")

    def __call__(self, p: Perm) -> float:
        return tour_cost(self.instance, p, self.reduced)

    def vector(self) -> np.ndarray:
        """Costs of all degree! tours, indexed by Lehmer rank.  Built once
        per instance and `reduced` and shared, so the array is read-only."""
        cached = self.instance._cost_vectors
        if self.reduced not in cached:
            table = perm_table(self.degree)
            costs = np.zeros(len(table))
            for u, v in _edges(table.T, self.instance.n, self.reduced):
                costs += self.instance.w[u, v]
            costs.setflags(write=False)
            cached[self.reduced] = costs
        return cached[self.reduced]

    def phase(self) -> Phase:
        """The cost vector split at the k-th city of a tour, k = degree // 2
        (at most degree - 2, so that S = (degree - k)! is even from
        degree 2 on), as a `Phase`: head[q] holds the edges from the start
        city through the k-city prefix of rank q, group[q] stands for the
        cities left, the last prefix city and, for a full tour, the first,
        and tail[g, u] holds the edges from that last city through the rest
        in the order of Lehmer rank u, back to the start.  Built once per
        instance and `reduced`, beside the cost vector, and shared."""
        cached = self.instance._phases
        if self.reduced not in cached:
            cached[self.reduced] = Phase(self.vector(), *_split(self.instance.w, self.degree, self.reduced))
        return cached[self.reduced]


def _split(w: np.ndarray, d: int, reduced: bool) -> tuple:
    """The head, group and tail of `TourCost.phase` for the degree-d tours
    on the weights w."""
    n, k = len(w), max(0, min(d // 2, d - 2))
    width = factorial(d - k)
    prefixes = perm_table(d)[::width, :k].astype(np.intp)  # the rows at u = 0, in rank order
    start = [np.full(len(prefixes), n - 1)] if reduced else []
    path = start + list(prefixes.T)
    head = np.zeros(len(prefixes))
    for u, v in zip(path, path[1:]):
        head += w[u, v]
    taken = np.zeros(len(prefixes), dtype=np.int64)
    for column in prefixes.T:
        taken |= 1 << column
    key = taken
    if path:
        key = key * n + path[-1]
    if k and not reduced:
        key = key * n + prefixes[:, 0]
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    # each group's rest, in the order of every Lehmer rank u: (groups, S, d - k)
    left = np.array([[c for c in range(d) if not taken[q] >> c & 1] for q in first], dtype=np.intp)
    rest = left[:, perm_table(d - k).astype(np.intp)]
    ends = [rest[..., i] for i in range(d - k)]
    if path:
        ends = [path[-1][first, None]] + ends + [np.full(1, n - 1) if reduced else prefixes[first, :1]]
    elif d > 1:
        ends.append(ends[0])
    tail = np.zeros(rest.shape[:2])
    for u, v in zip(ends, ends[1:]):
        tail += w[u, v]
    return head, group.reshape(-1), tail


def optimum(inst: TspInstance, reduced: bool = False) -> tuple[Perm, float]:
    """Globally cheapest tour, the argmin of the cost vector; ties broken
    by smallest Lehmer rank."""
    cost = TourCost(inst, reduced)
    costs = cost.vector()
    best = int(np.argmin(costs))
    return unrank(best, cost.degree), float(costs[best])


def random_instance(n: int, seed: int, lo: float = 1.0, hi: float = 10.0) -> TspInstance:
    """Weights drawn i.i.d. uniform from [lo, hi); same seed, same matrix."""
    _check_city_count(n)
    limits.check("instance", n)
    if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
        raise ValueError(f"need finite 0 < lo <= hi, got lo={lo}, hi={hi}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(lo, hi, size=(n, n))
    np.fill_diagonal(w, 0.0)
    return TspInstance(w)


def _check_city_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least 1 city, got {n}")


def save_instance(inst: TspInstance, path) -> None:
    """Plain-text format: n, directed flag, then one weight row per line.

    Weights are written as shortest round-tripping decimal literals, so
    save/load is value-exact.
    """
    lines = [f"n {inst.n}", "directed 1"]
    for row in inst.w:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_instance(path) -> TspInstance:
    """Parse the `save_instance` format with line/field diagnostics, the
    header first; under `directed 0` the weights must be symmetric."""
    with open(path) as f:
        lines = ((i, t) for i, t in enumerate(map(str.strip, f), 1) if t and not t.startswith("#"))
        head = list(islice(lines, 2))
        if len(head) < 2:
            raise ValueError(f"{path}: expected header lines 'n ...' and 'directed ...'")

        def header(index, key):
            lineno, text = head[index]
            parts = text.split()
            if len(parts) != 2 or parts[0] != key:
                raise ValueError(f"{path}:{lineno}: expected '{key} <value>', got {text!r}")
            return parts[1]

        try:
            n = int(header(0, "n"))
            _check_city_count(n)
            limits.check("instance", n)  # before any weight row is read
        except ValueError as e:
            raise ValueError(f"{path}: bad city count: {e}") from None
        directed = header(1, "directed")
        if directed not in ("0", "1"):
            raise ValueError(f"{path}:{head[1][0]}: directed must be 0 or 1, got {head[1][1]!r}")
        rows = list(islice(lines, n))
        found = len(rows) + sum(1 for _ in lines)
    if found != n:
        raise ValueError(f"{path}: expected {n} weight rows, found {found}")
    w = np.zeros((n, n))
    for u, (lineno, text) in enumerate(rows):
        fields = text.split()
        if len(fields) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} weights, got {len(fields)}")
        for v, tok in enumerate(fields):
            try:
                w[u, v] = float(tok)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: field {v + 1}: bad weight {tok!r}") from None
            if not np.isfinite(w[u, v]):
                raise ValueError(f"{path}:{lineno}: field {v + 1}: weight must be finite")
            if u != v and w[u, v] <= 0:
                raise ValueError(f"{path}:{lineno}: field {v + 1}: weight must be positive")
            if directed == "0" and v < u and w[u, v] != w[v, u]:
                raise ValueError(f"{path}:{lineno}: field {v + 1}: weight {float(w[u, v])!r} "
                                 f"differs from {float(w[v, u])!r} in row {v + 1}, "
                                 f"field {u + 1}, with directed 0")
    return TspInstance(w)
