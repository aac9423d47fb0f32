"""TSP instances on complete weighted digraphs, tour costs, and the
exact optimum.

Tours are permutations in one-line notation: position t holds the city
visited at time t (0-based).  The reduced cost fixes the last city as
tour start, so reduced tours are permutations of the remaining n-1
cities with the two boundary edges added implicitly.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import limits
from .perms import Perm, check_perm, perm_table, unrank


@dataclass(frozen=True)
class TspInstance:
    """Complete weighted digraph without self-loops; every weight finite,
    w[u, v] > 0 for u != v, and every tour's cost finite."""

    w: np.ndarray
    # read-only cost vectors keyed by `reduced`, built once by TourCost
    _cost_vectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    """Parse the `save_instance` format with line/field diagnostics.
    Under `directed 0` the weights must be symmetric."""
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(Path(path).read_text().splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected header lines 'n ...' and 'directed ...'")

    def header(index, key):
        lineno, text = lines[index]
        parts = text.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"{path}:{lineno}: expected '{key} <value>', got {text!r}")
        return parts[1]

    try:
        n = int(header(0, "n"))
        _check_city_count(n)
        limits.check("instance", n)  # before the n x n weights are allocated
    except ValueError as e:
        raise ValueError(f"{path}: bad city count: {e}") from None
    directed = header(1, "directed")
    if directed not in ("0", "1"):
        raise ValueError(f"{path}:{lines[1][0]}: directed must be 0 or 1, got {lines[1][1]!r}")
    rows = lines[2:]
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} weight rows, found {len(rows)}")
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
