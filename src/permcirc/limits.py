"""The one table of size caps.  The simulator keeps one amplitude per
tour, so most structures hold n! entries; the statevector oracle grows
as 2^m.  `check` runs before anything is allocated, and a refusal says
what the request would need.
"""

from dataclasses import dataclass
from math import factorial, log10
from typing import Callable


class TooLarge(Exception):
    """A request refused because its size exceeds a row of `CAPS`."""


@dataclass(frozen=True)
class Cap:
    """Sizes above `limit` are refused.  A request of size s holds or
    visits `units(s)` items of `unit_bytes` each; rows that bound work
    rather than memory have 0 bytes and report the count.  `note` follows
    the amount."""

    what: str
    size: str  # format of a size, e.g. "degree {}"
    limit: int
    units: Callable[[int], int]
    unit_bytes: int = 0
    note: str = ""


CAPS = {
    # an action keeps its K = P/B chunk ranks, and on a one-block state
    # the whole table it derives: the 26 cached actions of a degree-10 run
    # of every method hold 78.8 MB (158.0 MB as periods, 755 MB as flat
    # tables), and the benchmark's degree-10 circuits peak near 375 MB
    # RSS.  A run's degree-10 `Circuit` holds 8 states (4 checkpoints, 2
    # for the pass, 2 for the costate), 464 MB, and a QAOA one up to 4 x
    # 58 MB of phase factors besides, whatever its layer count.  At 11 one
    # binary-insertion circuit's actions would hold 0.42 GB and a `Circuit`
    # 5.11 GB of states, not yet measured.  The product sweep of
    # `verify_generating` needs 10 B a tour and K chunk ranks
    "state": Cap("state", "degree {}", 10, factorial, 16, "a copy"),
    # n^2 float64 weights, drawn or read before any other size is known
    "instance": Cap("instance", "{} cities", 4096, lambda n: n * n, 8),
    # an int8 row and a float64 cost per tour: degree 11 takes about 1.1 GB
    "permutations": Cap("permutation table", "degree {}", 11, factorial, 12 + 8),
    "statevector": Cap("statevector", "{} qubits", 17, lambda m: 1 << m, 16, "a copy"),
    # the d x d simplex of `minimize`: 4096 parameters peak at 427 MB RSS, and
    # real circuits have at most 45.  It bounds memory, not time: a fresh
    # simplex runs d circuits, each resumed from a prefix checkpoint, 4.8-8.5 s
    # at 512 QAOA layers on 4 cities (2 CPUs)
    "parameters": Cap("simplex", "{} parameters", 4096, lambda d: d * d, 8, "a copy"),
}


def _amount(units: int, unit_bytes: int) -> str:
    total = units * unit_bytes if unit_bytes else units
    if total >= 10**15:  # beyond any machine; a power of ten avoids overflow
        return f"about 10^{log10(total):.0f}" + (" bytes" if unit_bytes else "")
    if not unit_bytes:
        return f"{total:,}"
    if total >= 2**30 / 10:
        return f"{total / 2**30:.1f} GiB"
    return f"{total / 2**20:.1f} MiB"


def check(row: str, size: int) -> None:
    """Raise TooLarge when `size` exceeds the cap of `CAPS[row]`."""
    cap = CAPS[row]
    if size > cap.limit:
        need = " ".join(filter(None, (_amount(cap.units(size), cap.unit_bytes), cap.note)))
        raise TooLarge(f"{cap.what} of {cap.size.format(size)} needs {need}; "
                       f"cap is {cap.size.format(cap.limit)}")
